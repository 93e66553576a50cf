import importlib.util
import json
import pathlib
import sys

from macrosim.cli import main

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"


def test_saved_configurations_simulate_to_the_summary(tmp_path, fixtures_dir, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--runs", "6", "--jobs", "1", "--out-dir", str(tmp_path)])
    assert script.main() == 0

    summary = json.loads((tmp_path / "optimized.json").read_text())
    assert set(summary) == {"speed", "queue"}
    for target, entry in summary.items():
        assert entry["config_file"] == f"optimized_{target}.json"
        rc = main([
            "simulate",
            "--network", str(fixtures_dir / "twolights.json"),
            "--init", str(fixtures_dir / "twolights_init.csv"),
            "--lights", str(tmp_path / entry["config_file"]),
            "--seed", "2024",
            "--out", str(tmp_path / f"metrics_{target}.json"),
        ])
        assert rc == 0
        metrics = json.loads((tmp_path / f"metrics_{target}.json").read_text())
        assert (metrics["avg_speed_mps"], metrics["queue_length"]) == (
            entry["simulated"]["avg_speed_mps"],
            entry["simulated"]["queue_length"],
        )
