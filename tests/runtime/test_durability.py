"""Durability suite: checkpoints, recovery, group commit, crash drills.

The contract under test is exact-epoch recovery: a fresh process pointed
at the durable directory reconstructs the graph, the epoch counters and
the resident index of the dead one (the batch count is derived from the
counters: ``epoch − compactions``).  The crash
drills at the bottom execute that statement end to end — a child process
is killed mid-write at each seeded crash point and the recovered session
must answer bit-identically to a run that never crashed.
"""

import json
import shutil
import sys
import zipfile
import zlib

import numpy as np
import pytest

from repro.core.khop import concurrent_khop
from repro.dynamic.wal import WriteAheadLog, encode_record
from repro.dynamic.delta import MutationRecord
from repro.errors import CorruptCheckpoint, CorruptLog, DurabilityError
from repro.graph import rmat_edges
from repro.index.storage import labels_equal
from repro.runtime.durability import (
    CHECKPOINT_FORMAT,
    list_checkpoints,
    load_checkpoint,
    recover_session,
    run_durable_drill,
)
from repro.runtime.fault import (
    CRASH_MID_CHECKPOINT,
    CRASH_MID_COMPACTION,
    CRASH_POST_APPEND,
)
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from repro.telemetry import Instrumentation
from tests.dynamic.conftest import existing_edges, fresh_edges


@pytest.fixture
def graph():
    return rmat_edges(8, 2500, seed=5).remove_self_loops().deduplicate()


@pytest.fixture
def keys(graph):
    n = graph.num_vertices
    return set(
        int(u) * n + int(v)
        for u, v in zip(graph.src.tolist(), graph.dst.tolist())
    )


def _batch(rng, n, current, n_ins=4, n_del=2):
    ins = np.array(fresh_edges(rng, n, current, n_ins), dtype=np.int64)
    dels = np.array(existing_edges(rng, n, current, n_del), dtype=np.int64)
    return ins, dels


def _durable(graph, root, *, index=True, instr=None, **kw):
    sess = GraphSession(graph, num_machines=2, instrumentation=instr)
    sess.dynamic()
    if index:
        sess.index()
    mgr = sess.enable_durability(root, **kw)
    return sess, mgr


# --------------------------------------------------------------------------- #
# checkpoints
# --------------------------------------------------------------------------- #


class TestCheckpoints:
    def test_baseline_on_attach(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        assert sess.is_durable
        cks = list_checkpoints(tmp_path / "checkpoints")
        assert [d.name for d in cks] == ["ckpt-000000000000"]
        manifest, edges, bounds, labels = load_checkpoint(cks[0])
        assert manifest["format"] == CHECKPOINT_FORMAT
        assert manifest["epoch"] == 0
        ref = sess.dynamic().materialize_edges()
        assert np.array_equal(edges.src, ref.src)
        assert np.array_equal(edges.dst, ref.dst)
        assert labels is not None  # index was resident and current
        mgr.close()
        sess.close()

    def test_periodic_cadence_and_retention(self, graph, keys, tmp_path):
        rng = np.random.default_rng(0)
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=2)
        for _ in range(6):
            sess.apply_mutations(*_batch(rng, graph.num_vertices, keys))
        # baseline + one periodic checkpoint per 2 batches
        assert mgr.checkpoints == 1 + 3
        kept = list_checkpoints(tmp_path / "checkpoints")
        assert len(kept) == 2  # retention pruned the rest
        assert kept[-1].name == f"ckpt-{sess.graph_epoch:012d}"
        # retention also released the WAL segments under pruned checkpoints
        segs = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert len(segs) <= 3
        mgr.close()
        sess.close()

    def test_idempotent_per_epoch(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        before = mgr.checkpoints
        path = mgr.checkpoint()  # same epoch as the baseline
        assert path.is_dir()
        assert mgr.checkpoints == before
        mgr.close()
        sess.close()

    def test_torn_checkpoint_is_invisible_and_pruned(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=None)
        torn = tmp_path / "checkpoints" / "ckpt-000000000099"
        torn.mkdir()
        (torn / "edges.npz").write_bytes(b"half a payload")
        assert len(list_checkpoints(tmp_path / "checkpoints")) == 1
        rng = np.random.default_rng(1)
        sess.apply_mutations(*_batch(rng, graph.num_vertices, keys))
        mgr.checkpoint()  # retention sweeps torn directories
        assert not torn.exists()
        mgr.close()
        sess.close()

    def test_crc_mismatch_raises(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        mgr.close()
        sess.close()
        ck = list_checkpoints(tmp_path / "checkpoints")[0]
        data = bytearray((ck / "edges.npz").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (ck / "edges.npz").write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpoint, match="CRC"):
            load_checkpoint(ck)

    def test_missing_payload_and_bad_format_raise(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        mgr.close()
        sess.close()
        ck = list_checkpoints(tmp_path / "checkpoints")[0]
        manifest = json.loads((ck / "manifest.json").read_text())
        (ck / "index.npz").unlink()
        with pytest.raises(CorruptCheckpoint, match="missing payload"):
            load_checkpoint(ck)
        manifest["format"] = 999
        del manifest["files"]["index.npz"]
        (ck / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptCheckpoint, match="format"):
            load_checkpoint(ck)


# --------------------------------------------------------------------------- #
# recovery
# --------------------------------------------------------------------------- #


def _run_mutations(sess, keys, num_batches, seed=2):
    rng = np.random.default_rng(seed)
    n = sess.num_vertices
    for _ in range(num_batches):
        sess.apply_mutations(*_batch(rng, n, keys))


class TestRecovery:
    def test_round_trip_exact_epoch(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=4)
        _run_mutations(sess, keys, 6)
        final_epoch = int(sess.graph_epoch)
        ref_edges = sess.dynamic().materialize_edges()
        mgr.close()
        sess.close()

        rec = recover_session(tmp_path, cross_check=True)
        report = rec._durability.last_recovery
        assert int(rec.graph_epoch) == final_epoch
        assert rec.dynamic().epoch - rec.dynamic().compactions == 6
        got = rec.dynamic().materialize_edges()
        assert np.array_equal(got.src, ref_edges.src)
        assert np.array_equal(got.dst, ref_edges.dst)
        assert report.checkpoint_epoch == 4
        assert report.replayed_records == 2  # the post-checkpoint suffix
        assert report.replayed_mutations == 2
        assert report.checkpoint_fallbacks == 0
        assert report.cross_checked
        assert rec.has_index  # maintained through replay
        rec._durability.close()
        rec.close()

    def test_recovered_session_keeps_appending(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=None)
        _run_mutations(sess, keys, 3)
        mgr.close()
        sess.close()

        rec = recover_session(tmp_path)
        _run_mutations(rec, keys, 2, seed=9)
        epoch = int(rec.graph_epoch)
        rec._durability.close()
        rec.close()
        # the resumed appends landed in the same log
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.last_epoch == epoch
        wal.close()

    def test_fallback_to_older_checkpoint(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=2)
        _run_mutations(sess, keys, 4)
        final_epoch = int(sess.graph_epoch)
        ref_edges = sess.dynamic().materialize_edges()
        mgr.close()
        sess.close()

        newest = list_checkpoints(tmp_path / "checkpoints")[-1]
        data = bytearray((newest / "edges.npz").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (newest / "edges.npz").write_bytes(bytes(data))

        rec = recover_session(tmp_path)
        report = rec._durability.last_recovery
        assert report.checkpoint_fallbacks == 1
        assert report.checkpoint_epoch < final_epoch
        assert int(rec.graph_epoch) == final_epoch  # longer WAL replay
        got = rec.dynamic().materialize_edges()
        assert np.array_equal(got.src, ref_edges.src)
        assert np.array_equal(got.dst, ref_edges.dst)
        rec._durability.close()
        rec.close()

    def test_recovery_restores_the_recorded_settings(
        self, graph, keys, tmp_path
    ):
        """The dead session compacted every 5 and checkpointed every 4
        batches; given only the path, recovery resumes on both cadences
        and ends where a run that never stopped ends."""
        rng = np.random.default_rng(8)
        batches = [_batch(rng, graph.num_vertices, keys) for _ in range(12)]

        def session():
            sess = GraphSession(graph, num_machines=2)
            sess.dynamic(compact_interval=5)
            sess.index()
            return sess

        ref = session()
        for ins, dels in batches:
            ref.apply_mutations(ins, dels)
        dead = session()
        mgr = dead.enable_durability(
            tmp_path, fsync="always", checkpoint_every=4
        )
        for ins, dels in batches[:7]:
            dead.apply_mutations(ins, dels)
        mgr.close()
        dead.close()

        rec = recover_session(tmp_path)
        for ins, dels in batches[7:]:
            rec.apply_mutations(ins, dels)
        assert int(rec.graph_epoch) == int(ref.graph_epoch) == 14
        assert rec.dynamic().compactions == ref.dynamic().compactions == 2
        assert rec._durability.checkpoint_every == 4
        assert rec._durability.wal.fsync_policy == "always"
        rec._durability.close()
        rec.close()
        ref.close()

    def test_manifest_with_index_budget_keys_still_recovers(
        self, graph, keys, tmp_path
    ):
        """Checkpoints once carried the index's rebuild budget:
        ``config.churn_threshold`` and the ``index_churn`` counters.  The
        patched index is now canonical and keeps no budget, so a directory
        whose manifests hold both keys recovers with them ignored, and the
        recovered index is the build's labelling of the recovered graph."""
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=4)
        _run_mutations(sess, keys, 6)
        final_epoch = int(sess.graph_epoch)
        want = sess.index()
        mgr.close()
        sess.close()
        for ck in list_checkpoints(tmp_path / "checkpoints"):
            path = ck / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["config"]["churn_threshold"] = 0.02
            manifest["index_churn"] = {
                "mutations_since_build": 12, "base_edges": graph.num_edges,
            }
            path.write_text(json.dumps(manifest))

        rec = recover_session(tmp_path, cross_check=True)
        assert rec._durability.last_recovery.cross_checked
        assert int(rec.graph_epoch) == final_epoch
        assert labels_equal(rec.index(), want)
        rec._durability.close()
        rec.close()

    def test_compressed_checkpoint_still_recovers(self, graph, keys, tmp_path):
        """Checkpoints were once written with ``np.savez_compressed``; the
        same ``np.load`` reads them, so such a directory recovers to the
        epoch and verdicts of the uncompressed one it was made from."""
        sess, mgr = _durable(graph, tmp_path / "plain", checkpoint_every=4)
        _run_mutations(sess, keys, 6)
        mgr.close()
        sess.close()
        shutil.copytree(tmp_path / "plain", tmp_path / "deflated")
        for ck in list_checkpoints(tmp_path / "deflated" / "checkpoints"):
            manifest = json.loads((ck / "manifest.json").read_text())
            for name in manifest["files"]:
                with np.load(ck / name) as data:
                    arrays = {key: data[key] for key in data.files}
                np.savez_compressed(ck / name, **arrays)
                manifest["files"][name] = zlib.crc32((ck / name).read_bytes())
            (ck / "manifest.json").write_text(json.dumps(manifest))

        rng = np.random.default_rng(4)
        s, t = rng.integers(0, graph.num_vertices, size=(2, 512))
        seen = []
        for which, method in (
            ("plain", zipfile.ZIP_STORED), ("deflated", zipfile.ZIP_DEFLATED)
        ):
            newest = list_checkpoints(tmp_path / which / "checkpoints")[-1]
            for name in ("edges.npz", "index.npz"):
                with zipfile.ZipFile(newest / name) as zf:
                    assert {i.compress_type for i in zf.infolist()} == {method}
            rec = recover_session(tmp_path / which, cross_check=True)
            report = rec._durability.last_recovery
            assert report.checkpoint_fallbacks == 0
            edges = rec.dynamic().materialize_edges()
            seen.append((
                report.checkpoint_epoch, report.epoch, edges.src, edges.dst,
                rec.index().dist_many(s, t),
            ))
            rec._durability.close()
            rec.close()
        plain, deflated = seen
        assert plain[:2] == deflated[:2] == (4, 6)
        for a, b in zip(plain[2:], deflated[2:]):
            np.testing.assert_array_equal(a, b)

    def test_manifest_with_retired_keys_recovers(self, graph, keys, tmp_path):
        """Older builds also stored the batch count, the index epoch and
        the index maintenance mode, and wrote no edge-set layout key;
        recovery ignores the three and reads the missing key as no layout,
        so such a directory recovers to the same epoch, edge set and batch
        count."""
        sess = GraphSession(graph, num_machines=2)
        dg = sess.dynamic(compact_interval=3)
        sess.index()
        mgr = sess.enable_durability(tmp_path, checkpoint_every=4)
        _run_mutations(sess, keys, 7)
        want = (dg.epoch, dg.compactions, dg.materialize_edges())
        assert want[:2] == (9, 2)
        mgr.close()
        sess.close()
        for ck in list_checkpoints(tmp_path / "checkpoints"):
            manifest = json.loads((ck / "manifest.json").read_text())
            assert not {"mutation_batches", "index_epoch"} & set(manifest)
            assert "index_maintenance" not in manifest["config"]
            epoch = manifest["epoch"]
            manifest["mutation_batches"] = epoch - manifest["compactions"]
            manifest["index_epoch"] = epoch
            manifest["config"]["index_maintenance"] = "incremental"
            assert manifest["config"].pop("edge_sets") is None
            (ck / "manifest.json").write_text(json.dumps(manifest))

        rec = recover_session(tmp_path, cross_check=True)
        got = rec.dynamic()
        assert rec._durability.last_recovery.checkpoint_fallbacks == 0
        assert (got.epoch, got.compactions) == want[:2]
        assert got.epoch - got.compactions == 7
        edges = got.materialize_edges()
        np.testing.assert_array_equal(edges.src, want[2].src)
        np.testing.assert_array_equal(edges.dst, want[2].dst)
        assert rec.has_index
        assert not rec.has_edge_sets
        rec._durability.close()
        rec.close()

    def test_edge_set_layout_recovers_from_the_path(self, graph, keys, tmp_path):
        sess = GraphSession(
            graph, num_machines=2, edge_sets=True, sets_per_partition=4
        )
        sess.dynamic()
        mgr = sess.enable_durability(tmp_path, checkpoint_every=2)
        _run_mutations(sess, keys, 3)
        mgr.close()
        sess.close()
        rec = recover_session(tmp_path, cross_check=True)
        assert rec.pg.edge_set_settings == (4, None)
        assert rec.has_edge_sets
        for ck in list_checkpoints(tmp_path / "checkpoints"):
            manifest = json.loads((ck / "manifest.json").read_text())
            assert manifest["config"]["edge_sets"] == [4, None]
        rec._durability.close()
        rec.close()

    def test_format_1_manifest_is_refused(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        mgr.close()
        sess.close()
        ck = list_checkpoints(tmp_path / "checkpoints")[0]
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["format"] = 1
        del manifest["config"]
        (ck / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="manifest format 1"):
            recover_session(tmp_path)

    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="no committed checkpoint"):
            recover_session(tmp_path)

    def test_every_checkpoint_corrupt_raises(self, graph, tmp_path):
        sess, mgr = _durable(graph, tmp_path)
        mgr.close()
        sess.close()
        for ck in list_checkpoints(tmp_path / "checkpoints"):
            (ck / "edges.npz").write_bytes(b"gone")
        with pytest.raises(DurabilityError, match="failed validation"):
            recover_session(tmp_path)

    def test_wal_contradicting_checkpoint_raises(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=None)
        _run_mutations(sess, keys, 2)
        epoch = int(sess.graph_epoch)
        mgr.close()
        sess.close()
        # Forge a parse-valid record whose epoch skips ahead: replay must
        # refuse rather than silently diverge.
        seg = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        bogus = MutationRecord(
            epoch + 2,
            np.array([[0, 1]], dtype=np.int64),
            np.empty((0, 2), dtype=np.int64),
        )
        with open(seg, "ab") as fh:
            fh.write(encode_record(bogus))
        with pytest.raises(CorruptLog, match="expected epoch"):
            recover_session(tmp_path)


# --------------------------------------------------------------------------- #
# the write path's cost
# --------------------------------------------------------------------------- #


class TestWritePathBudget:
    """A mutation batch costs the batch, not the graph: across twelve
    batches on a durable, incrementally indexed session — a compaction and
    periodic checkpoints among them — nothing rebuilds a shard from an edge
    list (``build_csr``), re-partitions the graph
    (``partition_with_bounds``) or deflates a payload
    (``np.savez_compressed``), and only the shards a batch touches are
    spliced (``splice_effective_csr``): the index patch walks them and
    splices no shard of its own.  A k-hop wave runs before the batches and
    after each one, and none rebuilds an exchange plan
    (``_build_exchange_plan``): each is spliced with its shard."""

    def test_no_whole_graph_rebuild_or_compression(
        self, graph, keys, tmp_path, monkeypatch
    ):
        from repro.dynamic import delta
        from repro.graph import csr, partition

        sess = GraphSession(graph, num_machines=2)
        sess.dynamic(compact_interval=5)
        sess.index()
        mgr = sess.enable_durability(tmp_path, checkpoint_every=4)
        sources = list(range(0, sess.num_vertices, 4))
        concurrent_khop(sess, sources, 3)  # every plan is built here
        calls = {}

        def counted(name, fn):
            calls[name] = 0

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in (
            ("build_csr", csr.build_csr),
            ("partition_with_bounds", partition.partition_with_bounds),
            ("splice_effective_csr", delta.splice_effective_csr),
            ("_build_exchange_plan", partition._build_exchange_plan),
        ):
            wrapper = counted(name, fn)
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("repro") and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)
        monkeypatch.setattr(
            np, "savez_compressed",
            counted("savez_compressed", np.savez_compressed),
        )

        rng = np.random.default_rng(2)
        for _ in range(12):
            sess.apply_mutations(*_batch(rng, sess.num_vertices, keys))
            concurrent_khop(sess, sources, 3)
        sess.index()  # the deferred label repack runs on the first read
        assert sess.dynamic().compactions == 2
        assert mgr.checkpoints == 1 + 3
        # one out-CSR splice per partition owning a source of the batch,
        # one in-CSC splice per partition owning a target
        owner = sess.pg.owner_of
        shard_splices = sum(
            np.unique(owner(pairs[:, 0])).size + np.unique(owner(pairs[:, 1])).size
            for pairs in (
                np.concatenate((rec.inserts, rec.deletes))
                for rec in sess.dynamic().history
                if not rec.compaction
            )
        )
        assert len(sess.dynamic().history) == 12 + 2
        assert calls == {
            "build_csr": 0, "partition_with_bounds": 0, "savez_compressed": 0,
            "splice_effective_csr": shard_splices, "_build_exchange_plan": 0,
        }
        mgr.close()
        sess.close()


    def test_a_one_partition_batch_derives_one_plans_cuts(
        self, graph, keys, monkeypatch
    ):
        """A plan keeps the cuts derived from it, so after a batch inside
        one partition only that partition's spliced plan derives them
        again: the other tasks are made afresh for the new epoch but read
        the cuts their unchanged plans keep."""
        from repro.graph.partition import ExchangePlan

        sess = GraphSession(graph, num_machines=2)
        sess.dynamic()
        sources = list(range(0, sess.num_vertices, 4))
        concurrent_khop(sess, sources, 3)  # every plan derives its cuts here
        derived = []
        cuts = ExchangePlan.cuts
        monkeypatch.setattr(
            ExchangePlan, "cuts",
            lambda plan, owners: derived.append(plan) or cuts(plan, owners),
        )
        n, hi = graph.num_vertices, int(sess.pg.bounds[1])
        edge = next(
            (u, v) for u in range(hi) for v in range(hi)
            if u != v and u * n + v not in keys
        )
        sess.apply_mutations([edge], [])
        concurrent_khop(sess, sources, 3)
        assert len(derived) == 1
        assert derived[0] is sess.pg.partitions[0].exchange_plan()
        sess.close()


# --------------------------------------------------------------------------- #
# the service lane
# --------------------------------------------------------------------------- #


class TestDurableService:
    def test_group_commit_one_fsync_per_drain(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=None)
        svc = QueryService(sess, k=3)
        rng = np.random.default_rng(4)
        n = graph.num_vertices
        appends0, fsyncs0 = mgr.wal.appends, mgr.wal.fsyncs
        for i in range(5):
            svc.apply_mutations(*_batch(rng, n, keys), arrival=float(i) * 1e-4)
        svc.submit(0, arrival=1.0)
        svc.drain()
        assert mgr.wal.appends == appends0 + 5
        assert mgr.wal.fsyncs == fsyncs0 + 1  # one barrier for the group
        mgr.close()
        sess.close()

    def test_service_over_recovered_session(self, graph, keys, tmp_path):
        sess, mgr = _durable(graph, tmp_path, checkpoint_every=4)
        svc = QueryService(sess, k=3)
        rng = np.random.default_rng(6)
        n = graph.num_vertices
        for i in range(5):
            svc.apply_mutations(*_batch(rng, n, keys), arrival=float(i) * 1e-4)
        svc.submit(1, arrival=1.0)
        svc.drain()
        sources = rng.integers(0, n, size=6).astype(np.int64)
        ref = sess.khop(sources, 3)
        epoch = int(sess.graph_epoch)
        mgr.close()
        sess.close()

        svc2 = QueryService(recover_session(tmp_path), 3)
        try:
            assert int(svc2.session.graph_epoch) == epoch
            got = svc2.session.khop(sources, 3)
            assert np.array_equal(got.reached, ref.reached)
        finally:
            svc2.session._durability.close()
            svc2.session.close()


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #


class TestDurabilityTelemetry:
    def test_counters_cover_the_write_and_recovery_paths(
        self, graph, keys, tmp_path
    ):
        instr = Instrumentation()
        sess, mgr = _durable(
            graph, tmp_path, instr=instr, checkpoint_every=2
        )
        _run_mutations(sess, keys, 3)
        m = instr.metrics
        appends = m.get("cgraph_wal_appends_total").value()
        assert appends == 3.0
        assert m.get("cgraph_wal_fsyncs_total").value() >= 3.0
        assert m.get("cgraph_wal_bytes_total").value() == mgr.wal.bytes_written
        assert m.get("cgraph_checkpoints_total").value() == 2.0
        mgr.close()
        sess.close()

        instr2 = Instrumentation()
        rec = recover_session(tmp_path, instrumentation=instr2)
        m2 = instr2.metrics
        assert m2.get("cgraph_replayed_records_total").value() == 1.0
        assert m2.get("cgraph_recovery_seconds").value() > 0.0
        rec._durability.close()
        rec.close()


# --------------------------------------------------------------------------- #
# crash drills
# --------------------------------------------------------------------------- #


class TestCrashDrills:
    @pytest.mark.parametrize(
        "kind", [CRASH_POST_APPEND, CRASH_MID_CHECKPOINT, CRASH_MID_COMPACTION]
    )
    def test_kill_and_recover_bit_identical(self, kind, tmp_path):
        report = run_durable_drill(
            17, tmp_path, crash_kind=kind, crash_at=1, scale=0.5
        )
        assert report.crash_kind == kind
        assert report.recovered_epoch >= report.checkpoint_epoch
        assert report.final_epoch > report.recovered_epoch
        assert report.waves_compared >= 1
        assert report.recovery_seconds > 0.0

    def test_random_kill_point_is_seeded(self, tmp_path):
        a = run_durable_drill(3, tmp_path / "a", scale=0.5)
        b = run_durable_drill(3, tmp_path / "b", scale=0.5)
        assert (a.crash_kind, a.crash_at) == (b.crash_kind, b.crash_at)

    def test_pool_backend_parity(self, tmp_path):
        report = run_durable_drill(
            29, tmp_path, crash_kind=CRASH_POST_APPEND, crash_at=5,
            backend="pool", scale=0.5,
        )
        assert report.backend == "pool"
        assert report.waves_compared >= 1
