"""Macroscopic road-network traffic simulation with signal-timing optimization."""
