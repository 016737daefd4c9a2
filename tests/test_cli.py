"""Tests for the ``python -m repro`` command-line interface."""

import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.graph.datasets import clear_cache

SCALE = ["--scale", "0.03"]


@pytest.fixture(autouse=True)
def _clear():
    yield
    clear_cache()


def run_cli(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_every_experiment_alias_resolves(self):
        from repro.bench import experiments

        for alias, fn in EXPERIMENTS.items():
            assert hasattr(experiments, fn), alias


class TestCommands:
    def test_datasets(self):
        out = run_cli("datasets")
        assert "OR-100M" in out
        assert "FRS-100B" in out

    def test_khop(self):
        out = run_cli("khop", "--queries", "4", "--k", "2", *SCALE)
        assert "4 concurrent 2-hop queries" in out
        assert "total virtual time" in out

    def test_khop_with_edge_sets(self):
        out = run_cli("khop", "--queries", "2", "--edge-sets", *SCALE)
        assert "reached" in out
        # a layout: every direction prints exactly what the flat run does
        for direction in ("push", "pull"):
            argv = ("khop", "--queries", "2", "--direction", direction, *SCALE)
            assert run_cli(*argv, "--edge-sets") == run_cli(*argv)

    def test_reach(self):
        out = run_cli("reach", "--pairs", "3", "--k", "3", *SCALE)
        assert out.count("->") == 3

    def test_pagerank(self):
        out = run_cli("pagerank", "--iterations", "3", "--top", "2", *SCALE)
        assert "3 iterations (sync)" in out
        assert out.count("rank") >= 2

    def test_pagerank_async(self):
        out = run_cli("pagerank", "--iterations", "2", "--async", *SCALE)
        assert "(async)" in out

    def test_sssp(self):
        out = run_cli("sssp", "--max-hops", "2", *SCALE)
        assert "reachable:" in out

    def test_kcore(self):
        out = run_cli("kcore", *SCALE)
        assert "degeneracy" in out

    def test_hopplot(self):
        out = run_cli("hopplot", "--dataset", "SLASHDOT-ZOO", "--sources", "20",
                      *SCALE)
        assert "delta_0.5" in out

    def test_experiment_table1(self):
        out = run_cli("experiment", "table1", *SCALE)
        assert "Table 1" in out

    def test_experiment_fig1(self):
        out = run_cli("experiment", "fig1", "--scale", "0.05")
        assert "Figure 1" in out


class TestNewCommands:
    def test_path_found(self):
        out = run_cli("path", "--source", "0", "--target", "1", *SCALE)
        assert "->" in out or "not reachable" in out

    def test_path_unreachable_message(self):
        # target an isolated-ish vertex with k=0-like budget
        out = run_cli("path", "--source", "0", "--target", "1", "--k", "0",
                      *SCALE)
        assert "not reachable" in out

    def test_centrality_closeness(self):
        out = run_cli("centrality", "--roots", "10", "--top", "3", *SCALE)
        assert "closeness centrality" in out
        assert out.count("vertex") == 3

    def test_centrality_harmonic(self):
        out = run_cli("centrality", "--kind", "harmonic", "--roots", "5", *SCALE)
        assert "harmonic centrality" in out

    def test_experiment_export_csv(self, tmp_path):
        target = tmp_path / "rows.csv"
        out = run_cli("experiment", "table1", "--scale", "0.03",
                      "--export", str(target))
        assert "rows written" in out
        assert target.read_text().startswith("name,")

    def test_experiment_export_json(self, tmp_path):
        import json

        target = tmp_path / "rows.json"
        run_cli("experiment", "fig1", "--scale", "0.05",
                "--export", str(target))
        rows = json.loads(target.read_text())
        assert rows[0]["distance"] == 0


class TestServiceRefusals:
    """The constructors own every limit; the CLI maps their refusals to one
    ``repro service:`` exit instead of re-checking with its own literals."""

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--batch-width", "0"], r"batch_width must be in \[1, 512\]"),
            (["--batch-width", "513"], r"batch_width must be in \[1, 512\]"),
            (["--deadline-ms", "0"], "deadline_seconds must be positive"),
            (["--cache", "8"], "planner='hybrid'"),
            (["--wal-dir", "{wal}", "--checkpoint-every", "0"],
             "checkpoint_every must be >= 1"),
        ],
        ids=["width-0", "width-513", "deadline", "cache-traversal",
             "checkpoint-every"],
    )
    def test_constructor_refusal_exits_cleanly(self, tmp_path, flags, match):
        stream = tmp_path / "edits.txt"
        stream.write_text("+ 0 1\n")
        flags = [
            f.format(stream=stream, wal=tmp_path / "state") for f in flags
        ]
        with pytest.raises(SystemExit, match="^repro service: .*" + match):
            main(["service", "--queries", "4", *flags, *SCALE], out=io.StringIO())

    @pytest.mark.parametrize(
        "line, match",
        [
            ("+ 0 1 nan", "line 1: arrival must be finite"),
            ("+ 0 1 inf", "line 1: arrival must be finite"),
            ("+ 0 99999999 0", "inserts endpoint out of range"),
        ],
        ids=["arrival-nan", "arrival-inf", "endpoint-out-of-range"],
    )
    def test_malformed_stream_exits_cleanly(self, tmp_path, line, match):
        # the parser refuses what it can see; the graph refuses the rest
        # when the stream is queued, inside the same refusal clause
        stream = tmp_path / "edits.txt"
        stream.write_text(line + "\n")
        with pytest.raises(SystemExit, match="^repro service: .*" + match):
            main(["service", "--queries", "4", "--mutations", str(stream),
                  *SCALE], out=io.StringIO())

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mutations", "{stream}"],
            ["--mutations", "{stream}", "--wal-dir", "{wal}"],
        ],
        ids=["mutations-edge-sets", "wal-edge-sets"],
    )
    def test_edge_sets_serve_a_dynamic_graph(self, tmp_path, flags):
        # once refused as a static mode: the layout's bounds are frozen and
        # each mutated shard's plan is rebuilt under them, so the report is
        # the flat service's, line for line
        stream = tmp_path / "edits.txt"
        stream.write_text("+ 0 1\n+ 1 2\n")
        outs = []
        for layout in ([], ["--edge-sets"]):
            wal = tmp_path / f"state{len(outs)}"
            argv = [f.format(stream=stream, wal=wal) for f in flags]
            out = run_cli("service", "--queries", "4", *argv, *layout, *SCALE)
            outs.append(out.replace(str(wal), "<wal>"))
        assert outs[0] == outs[1]
        assert "graph now at epoch 1" in outs[1]

    def test_width_past_one_word_runs(self):
        # a burst: 300 queries in three dispatches, so batches past 64 ran
        out = run_cli("service", "--queries", "300", "--reach-frac", "0.5",
                      "--batch-width", "200", "--rate", "1e9", *SCALE)
        assert "3 dispatch(es), 150 point / 150 enumeration" in out


class TestRecover:
    def test_recover_restores_the_recorded_policy(self, tmp_path):
        """The service's durable directory is all ``recover`` needs: it
        resumes at the service's epoch on the service's cadence."""
        import re

        stream = tmp_path / "edits.txt"
        stream.write_text("+ 0 1 0\n+ 1 2 0.001\n- 0 1 0.002\n")
        wal = tmp_path / "state"
        out = run_cli("service", "--queries", "4", "--k", "2",
                      "--mutations", str(stream), "--wal-dir", str(wal),
                      "--checkpoint-every", "2", *SCALE)
        epoch, edges = re.search(
            r"graph now at epoch (\d+) \(([\d,]+) edges\)", out
        ).groups()
        out = run_cli("recover", "--wal-dir", str(wal), "--cross-check")
        assert f"{edges} edges at epoch {epoch};" in out
        assert "checkpoint every 2 batches" in out
        assert "cross-check: resident shards bit-identical" in out


class TestQueryRefusals:
    """``khop`` and ``reach`` map the traversal door's refusals to one
    ``repro <command>:`` exit, as ``service`` does."""

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["khop", "--queries", "0"], r"need 1\.\.512 sources, got 0"),
            (["khop", "--queries", "513"], r"need 1\.\.512 sources, got 513"),
            (["khop", "--k", "-1"], "k must be >= 0"),
            (["reach", "--pairs", "0"], r"need 1\.\.512 sources, got 0"),
            (["reach", "--k", "-1"], "k must be >= 0"),
        ],
        ids=["khop-queries-0", "khop-queries-513", "khop-k-negative",
             "reach-pairs-0", "reach-k-negative"],
    )
    def test_bad_size_exits_cleanly(self, argv, match):
        with pytest.raises(SystemExit, match=f"^repro {argv[0]}: .*{match}"):
            main([*argv, *SCALE], out=io.StringIO())

    def test_khop_past_one_word_is_one_batch(self):
        out = run_cli("khop", "--queries", "100", "--k", "2", *SCALE)
        assert "1 batch(es)" in out
        assert out.count("reached") == 100


class TestIndex:
    """``repro index`` builds, saves, loads and answers; bad input exits as
    one ``repro index:`` line, as in ``khop``, ``reach`` and ``service``."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "or.npz"
        out = run_cli("index", "build", "--save", str(path), *SCALE)
        assert f"saved to {path}" in out
        return path

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["--source", "100000"], "source vertex out of range"),
            (["--target", "-1"], "target vertex out of range"),
            (["--k", "-1"], "k must be >= 0"),
        ],
        ids=["source-out-of-range", "target-out-of-range", "k-negative"],
    )
    def test_bad_query_exits_cleanly(self, argv, match):
        with pytest.raises(SystemExit, match=f"^repro index: {match}"):
            main(["index", "query", *argv, *SCALE], out=io.StringIO())

    def test_missing_index_file_exits_cleanly(self, tmp_path):
        absent = tmp_path / "absent.npz"
        with pytest.raises(SystemExit, match="^repro index: .*No such file"):
            main(["index", "stats", "--load", str(absent), *SCALE],
                 out=io.StringIO())

    def test_index_over_another_graph_exits_cleanly(self, saved):
        with pytest.raises(
            SystemExit, match=r"^repro index: index covers \d+ vertices, "
                              r"graph has \d+"
        ):
            main(["index", "stats", "--load", str(saved), "--scale", "0.06"],
                 out=io.StringIO())

    def test_saved_index_answers_like_reach(self, saved):
        import re

        stats = run_cli("index", "stats", "--load", str(saved), *SCALE)
        assert f"index loaded from {saved}" in stats
        assert "label entries:" in stats
        out = run_cli("reach", "--pairs", "8", "--k", "1", *SCALE)
        pairs = re.findall(r"(\d+) -> +(\d+): (reachable|unreachable)", out)
        assert {v for _, _, v in pairs} == {"reachable", "unreachable"}
        for s, t, verdict in pairs:
            out = run_cli("index", "query", "--load", str(saved),
                          "--source", s, "--target", t, "--k", "1", *SCALE)
            assert f"{s} -> {t} (k=1): {verdict}" in out


class TestServiceTelemetry:
    def test_service_without_flags_stays_uninstrumented(self):
        out = run_cli("service", "--queries", "8", "--k", "2", *SCALE)
        assert "makespan" in out
        assert "trace written" not in out

    def test_service_writes_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        out = run_cli("service", "--queries", "16", "--k", "2",
                      "--discipline", "batch",
                      "--trace-out", str(trace),
                      "--metrics-out", str(prom), *SCALE)
        assert f"trace written to {trace}" in out
        assert f"metrics written to {prom}" in out

        import json

        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert any(e["cat"] == "superstep" for e in spans)

        text = prom.read_text()
        for name in ("cgraph_messages_total", "cgraph_bytes_total",
                     "cgraph_edges_scanned_total",
                     "cgraph_response_seconds_bucket"):
            assert name in text

    def test_telemetry_summarizes_a_trace(self, tmp_path):
        trace = tmp_path / "t.json"
        run_cli("service", "--queries", "16", "--k", "2",
                "--discipline", "batch", "--trace-out", str(trace), *SCALE)
        out = run_cli("telemetry", str(trace), "--top", "3")
        assert "virtual time by category" in out
        assert "superstep" in out
        assert "per-partition compute skew" in out
        assert "skew ratio" in out

    def test_telemetry_reads_the_full_json_dump(self, tmp_path):
        from repro.telemetry import Instrumentation, write_telemetry_json

        instr = Instrumentation()
        instr.tracer.record("compute p0", cat="compute", tid=0,
                            virt_start=0.0, virt_end=1.0, edges_scanned=5)
        dump = write_telemetry_json(instr, tmp_path / "dump.json")
        out = run_cli("telemetry", str(dump))
        assert "1 span(s)" in out
        assert "compute" in out
