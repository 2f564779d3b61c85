"""``tools/ledger_pairs.py`` on canned ``run.py`` outputs (no benchmark runs)."""

import json
import pathlib

import pytest

from .test_bench_smoke import load_tool

REPO = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = CONTRACT["end_to_end"]


@pytest.fixture(scope="module")
def lp():
    return load_tool("ledger_pairs")


def canned(host_user_s, *, setup_s=0.5, rss=100.0, sim_us=1000.0,
           mibs=50.0, err=8.0, failed=0, attempted=100):
    """One contract object, as ``run.py --workload W`` ends with."""
    values = {"setup_s": setup_s, "host_user_s": host_user_s,
              "peak_rss_mib": rss, "sim_us": sim_us,
              "sim_mibs_geomean": mibs, "paper_err_mean_pct": err}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {spec["name"]: {"value": values[spec["name"]],
                                       "unit": spec["unit"]}
                        for spec in END_TO_END}}


def verdicts(lp, base, change):
    return {row["name"]: row for row in lp.summarise(base, change, END_TO_END)}


class TestSummarise:
    def test_quiet_runs_within_bound_are_ok(self, lp):
        base = [canned(1.00 + 0.01 * i) for i in range(10)]
        change = [canned(1.10 + 0.01 * i) for i in range(10)]
        rows = verdicts(lp, base, change)
        host = rows["host_user_s"]
        assert host["verdict"] == "ok"
        assert host["worse"] == pytest.approx(0.10 / 1.045)
        assert (host["wins"], host["losses"]) == (0, 10)
        assert host["base"][1] == pytest.approx(1.045)
        # Deterministic metrics: identical, zero spread, no winner.
        assert rows["sim_us"]["verdict"] == "ok"
        assert rows["sim_us"]["worse"] == 0.0
        assert (rows["sim_us"]["wins"], rows["sim_us"]["losses"]) == (0, 0)

    def test_resolved_regression(self, lp):
        base = [canned(1.00 + 0.01 * i) for i in range(10)]
        change = [canned(1.40 + 0.01 * i) for i in range(10)]
        assert verdicts(lp, base, change)["host_user_s"]["verdict"] \
            == "regression"

    def test_wide_spread_is_unresolved_not_unchanged(self, lp):
        noisy = [1.0, 1.6, 1.0, 1.7, 1.1, 1.8, 1.0, 1.9, 1.2, 1.6]
        base = [canned(v) for v in noisy]
        same = verdicts(lp, base, base)["host_user_s"]
        assert same["worse"] == 0.0 and same["verdict"] == "unresolved"
        slower = [canned(2 * v) for v in noisy]
        assert verdicts(lp, base, slower)["host_user_s"]["verdict"] \
            == "unresolved"

    def test_gain_needs_nine_in_ten_wins_beyond_the_base_spread(self, lp):
        base = [canned(1.00 + 0.01 * i) for i in range(10)]
        faster = [canned(0.70 + 0.01 * i) for i in range(10)]
        assert verdicts(lp, base, faster)["host_user_s"]["verdict"] == "gain"
        one_loss = faster[:9] + [canned(1.5)]
        assert verdicts(lp, base, one_loss)["host_user_s"]["verdict"] == "gain"
        two_losses = faster[:8] + [canned(1.5)] * 2
        assert verdicts(lp, base, two_losses)["host_user_s"]["verdict"] == "ok"
        # Nine wins, but by less than the base's q3 - q1 (0.045 s).
        close = [canned(0.97 + 0.01 * i) for i in range(10)]
        assert verdicts(lp, base, close)["host_user_s"]["verdict"] == "ok"

    def test_higher_is_better_and_exact_metrics(self, lp):
        base = [canned(1.0, mibs=50.0, sim_us=1000.0)] * 4
        change = [canned(1.0, mibs=40.0, sim_us=1000.0)] * 4
        rows = verdicts(lp, base, change)
        assert rows["sim_mibs_geomean"]["verdict"] == "regression"
        assert rows["sim_mibs_geomean"]["worse"] == pytest.approx(0.2)
        assert rows["sim_mibs_geomean"]["losses"] == 4
        faster = [canned(1.0, mibs=60.0)] * 4
        assert verdicts(lp, base, faster)["sim_mibs_geomean"]["wins"] == 4

    def test_zero_base(self, lp):
        base = [canned(1.0, err=0.0)] * 3
        assert verdicts(lp, base, base)["paper_err_mean_pct"]["verdict"] == "ok"
        worse = [canned(1.0, err=0.5)] * 3
        assert verdicts(lp, base, worse)["paper_err_mean_pct"]["verdict"] \
            == "regression"

    def test_failed_share(self, lp):
        runs = [canned(1.0, failed=1, attempted=50), canned(1.0, attempted=150)]
        assert lp.failed_share(runs) == 1 / 200
        assert lp.failed_share([]) == 0.0


class TestMain:
    @staticmethod
    def fake_runs(lp, monkeypatch, change_host, change_failed=0):
        calls = []

        def run_side(side, workload, seed, seconds):
            is_change = side == lp.REPO
            calls.append((workload, "change" if is_change else "base",
                          seed, seconds))
            if is_change:
                return canned(change_host, failed=change_failed)
            return canned(1.0)

        monkeypatch.setattr(lp, "run_side", run_side)
        return calls

    def test_interleaves_and_reports_markdown(self, lp, monkeypatch,
                                              tmp_path, capsys):
        calls = self.fake_runs(lp, monkeypatch, change_host=1.1)
        code = lp.main([str(tmp_path), "--workload", "rndv_stream",
                        "--workload", "noncontig", "--pairs", "3",
                        "--seed", "7"])
        assert code == 0
        sides = [side for workload, side, *_ in calls
                 if workload == "rndv_stream"]
        assert sides == ["base", "change", "change", "base", "base", "change"]
        assert {(seed, seconds) for *_, seed, seconds in calls} \
            == {(7, CONTRACT["run_seconds"])}
        out = capsys.readouterr().out
        assert "#### `rndv_stream`, seed 7" in out
        assert "#### `noncontig`, seed 7" in out
        assert "| `host_user_s` | s | 1 (1 – 1) | 1.1 (1.1 – 1.1) " \
               "| +10.0% | 0 / 3 | 25% | ok |" in out
        assert "Every `host_user_s` run in pair order — base: 1 1 1; " \
               "change: 1.1 1.1 1.1." in out
        assert "Every `sim_us` run" not in out
        assert out.rstrip().endswith("RESULT: ok")

    def test_regression_exits_1(self, lp, monkeypatch, tmp_path, capsys):
        self.fake_runs(lp, monkeypatch, change_host=1.5)
        assert lp.main([str(tmp_path), "--workload", "noncontig",
                        "--pairs", "2"]) == 1
        assert "| regression |" in capsys.readouterr().out

    def test_higher_failed_share_exits_1(self, lp, monkeypatch, tmp_path,
                                         capsys):
        self.fake_runs(lp, monkeypatch, change_host=1.0, change_failed=1)
        assert lp.main([str(tmp_path), "--workload", "noncontig",
                        "--pairs", "1"]) == 1
        assert "change 1.0000%" in capsys.readouterr().out

    def test_unknown_ref_and_bad_arguments_exit_2(self, lp, capsys):
        assert lp.main(["no-such-ref-anywhere", "--pairs", "1"]) == 2
        assert "merge-base" in capsys.readouterr().err
        for argv in (["HEAD", "--pairs", "0"],
                     ["HEAD", "--workload", "no_such_workload"], []):
            with pytest.raises(SystemExit) as exit_info:
                lp.main(argv)
            assert exit_info.value.code == 2
