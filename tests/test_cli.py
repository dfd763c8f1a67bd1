"""Command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.generators import stencil_2d
from repro.formats import write_matrix_market


@pytest.fixture
def mtx_file(tmp_path, rng):
    path = tmp_path / "m.mtx"
    write_matrix_market(stencil_2d(rng, nx=20, ny=20), path)
    return str(path)


def test_features_command(mtx_file, capsys):
    assert main(["features", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "nnz" in out and "ell_size" in out
    assert len(out.strip().splitlines()) == 21


def test_benchmark_command(mtx_file, capsys):
    assert main(["benchmark", mtx_file, "--arch", "turing", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "csr:" in out and "<- best" in out
    assert "Turing" in out


def test_train_and_predict_roundtrip(tmp_path, mtx_file, capsys):
    model = str(tmp_path / "selector.npz")
    assert main([
        "train", "--size", "60", "--clusters", "10", "--trials", "5",
        "--arch", "volta", "--out", model,
    ]) == 0
    out = capsys.readouterr().out
    assert "saved 10 labeled centroids" in out
    assert main(["predict", mtx_file, "--model", model]) == 0
    out = capsys.readouterr().out
    assert "recommended format:" in out
    fmt = out.split("recommended format:")[1].split()[0]
    assert fmt in {"csr", "coo", "ell", "hyb"}


def test_tables_command(capsys):
    assert main(["tables", "--small", "--only", "table2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_no_args_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


class TestProfile:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        from repro.obs import TELEMETRY

        yield
        TELEMETRY.disable()
        TELEMETRY.reset()

    def test_train_profile_emits_parseable_trace(self, tmp_path, capsys):
        import json

        from repro.obs import aggregate, load_trace, total_root_seconds

        trace = str(tmp_path / "trace.jsonl")
        model = str(tmp_path / "selector.npz")
        assert main([
            "train", "--size", "50", "--clusters", "8", "--trials", "5",
            "--out", model, "--profile", trace,
        ]) == 0
        err = capsys.readouterr().err
        assert "span events written" in err
        assert "cli.train" in err
        assert "[obs] metrics:" in err
        events = load_trace(trace)
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] == "X"
            json.dumps(event)  # every event is JSON-serialisable
        names = {e["name"] for e in events}
        assert "cli.train" in names
        assert "kmeans.fit" in names
        assert "pipeline.fit" in names
        # The training layer: one span per selector call, naming its model.
        fit = next(e for e in events if e["name"] == "ml.fit")
        label = next(e for e in events if e["name"] == "ml.label")
        assert fit["args"]["model"] == "kmeans"
        assert label["args"]["model"] == "vote"
        # The root span covers the whole command, so the trace accounts
        # for (well over) 90% of the command's wall time.
        root = next(e for e in events if e["name"] == "cli.train")
        assert root["dur"] >= 0.9 * total_root_seconds(events) * 1e6
        assert aggregate(events)[0].calls >= 1

    def test_profile_without_path_prints_report_only(
        self, tmp_path, mtx_file, capsys
    ):
        assert main(["features", mtx_file, "--profile"]) == 0
        out, err = capsys.readouterr()
        assert "nnz" in out  # command output still lands on stdout
        assert "[obs] span tree:" in err
        assert "cli.features" in err
        assert "span events written" not in err

    def test_stats_renders_hot_path_table(self, tmp_path, capsys):
        model = str(tmp_path / "selector.npz")
        trace = str(tmp_path / "trace.jsonl")
        assert main([
            "train", "--size", "50", "--clusters", "8", "--trials", "5",
            "--out", model, "--profile", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "covered wall time" in out
        assert "self%" in out
        assert "cli.train" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n", encoding="utf-8")
        assert main(["stats", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_stats_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["stats", str(empty)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_default_run_leaves_telemetry_disabled(self, mtx_file):
        from repro.obs import TELEMETRY

        assert main(["features", mtx_file]) == 0
        assert not TELEMETRY.enabled
        assert TELEMETRY.registry.names() == []


def test_train_with_jobs_and_cache(tmp_path, capsys):
    model = str(tmp_path / "selector.npz")
    cache_dir = str(tmp_path / "cache")
    args = [
        "train", "--size", "40", "--clusters", "8", "--trials", "3",
        "--arch", "volta", "--out", model,
        "--jobs", "2", "--cache-dir", cache_dir,
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "saved 8 labeled centroids" in first
    # Second run hits the artifact cache and trains the same selector.
    model2 = str(tmp_path / "selector2.npz")
    args[args.index(model)] = model2
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first.split("(training accuracy")[1] == \
        second.split("(training accuracy")[1]


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    model = str(tmp_path / "m.npz")
    assert main([
        "train", "--size", "30", "--clusters", "5", "--trials", "2",
        "--out", model, "--cache-dir", cache_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries    : 1" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 1 cached campaign(s)" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_cache_without_dir_errors(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache", "info"]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_cache_dir_env_var(tmp_path, monkeypatch, capsys):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
    assert main(["cache", "info"]) == 0
    assert cache_dir in capsys.readouterr().out


class TestPredictDegradation:
    """Exit-code policy: 0 = recommendation printed (possibly a degraded
    CSR fallback), 1 = model problem under --strict, 2 = unusable input
    matrix."""

    def test_missing_model_falls_back_to_csr(self, mtx_file, capsys):
        assert main(["predict", mtx_file, "--model", "nope.npz"]) == 0
        out, err = capsys.readouterr()
        assert "recommended format: csr (degraded fallback)" in out
        assert "model unusable" in err

    def test_missing_model_strict_exits_1(self, mtx_file, capsys):
        assert main([
            "predict", mtx_file, "--model", "nope.npz", "--strict",
        ]) == 1
        err = capsys.readouterr().err
        assert "refusing degraded recommendation" in err

    def test_corrupt_model_falls_back(self, tmp_path, mtx_file, capsys):
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(b"\x00\x01 definitely not a zip archive")
        assert main(["predict", mtx_file, "--model", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "degraded fallback" in out

    def test_custom_fallback_format(self, mtx_file, capsys):
        assert main([
            "predict", mtx_file, "--model", "nope.npz",
            "--fallback-format", "hyb",
        ]) == 0
        assert "recommended format: hyb" in capsys.readouterr().out

    def test_unreadable_matrix_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not MatrixMarket\n", encoding="utf-8")
        assert main([
            "predict", str(bad), "--model", "irrelevant.npz",
        ]) == 2
        assert "unusable input matrix" in capsys.readouterr().err

    def test_missing_matrix_exits_2(self, tmp_path, mtx_file, capsys):
        assert main([
            "predict", str(tmp_path / "ghost.mtx"), "--model", "nope.npz",
        ]) == 2

    def test_forged_giant_header_exits_2_without_reading_body(
        self, tmp_path, capsys
    ):
        """A tiny file declaring a huge matrix dies at the size line."""
        forged = tmp_path / "forged.mtx"
        forged.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "999999999 999999999 999999999999\n"
            "1 1 1.0\n"
        )
        assert main([
            "predict", str(forged), "--model", "irrelevant.npz",
        ]) == 2
        err = capsys.readouterr().err
        assert "unusable input matrix" in err
        assert "exceed limit" in err

    def test_forged_giant_nnz_exits_2(self, tmp_path, capsys):
        forged = tmp_path / "forged.mtx"
        forged.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "10 10 999999999999\n"
            "1 1 1.0\n"
        )
        assert main([
            "predict", str(forged), "--model", "irrelevant.npz",
        ]) == 2
        assert "exceeds limit" in capsys.readouterr().err

    def test_size_limits_can_be_disabled(self, tmp_path, mtx_file, capsys):
        assert main([
            "predict", mtx_file, "--model", "nope.npz",
            "--max-dim", "0", "--max-nnz", "0",
        ]) == 0
        assert "recommended format:" in capsys.readouterr().out


class TestPredictOp:
    """``predict --op``: the analytical kernel model needs no trained model."""

    @pytest.fixture
    def probe(self, tmp_path):
        path = tmp_path / "probe.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "4 4 4\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n"
        )
        return str(path)

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["--op", "spmm:32", "--arch", "volta"], "spmm:32"),
            (["--op", "spgemm"], "spgemm"),
        ],
        ids=["spmm", "spgemm"],
    )
    def test_op_prints_its_canonical_name(self, probe, argv, canonical, capsys):
        assert main(["predict", probe, *argv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("recommended format: ")
        assert f" for {canonical} on " in out

    def test_bad_op_exits_2(self, probe, capsys):
        assert main(["predict", probe, "--op", "gemv"]) == 2
        assert "unknown op kind 'gemv'" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_completes_with_quarantine_and_verifies(self, capsys):
        rc = main([
            "chaos", "--size", "40", "--trials", "2", "--fail", "0.3",
            "--retries", "3", "--require-quarantine", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign degradation report" in out
        assert "quarantined :" in out
        assert "byte-identical to the fault-free run" in out

    def test_chaos_no_faults_fails_quarantine_gate(self, capsys):
        rc = main([
            "chaos", "--size", "10", "--trials", "2", "--fail", "0.0",
            "--corrupt", "0.0", "--require-quarantine",
        ])
        assert rc == 1
        assert "expected a non-empty quarantine" in capsys.readouterr().err


class TestAbortResume:
    def test_injected_abort_exits_3_then_resume_completes(
        self, tmp_path, monkeypatch, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        model = str(tmp_path / "selector.npz")
        base = [
            "train", "--size", "25", "--clusters", "5", "--trials", "2",
            "--out", model, "--cache-dir", cache_dir,
        ]
        monkeypatch.setenv("REPRO_FAULTS", "abort=40")
        assert main(base + ["--checkpoint-every", "10"]) == 3
        err = capsys.readouterr().err
        assert "campaign aborted" in err
        assert "--resume" in err

        monkeypatch.delenv("REPRO_FAULTS")
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "saved 5 labeled centroids" in out


class TestServeCommand:
    def test_serve_stream_answers_and_shuts_down(
        self, tmp_path, monkeypatch, capsys, mtx_file
    ):
        import io
        import json

        from repro.serving.drill import synthetic_frozen_selector

        model = str(tmp_path / "selector.npz")
        synthetic_frozen_selector(seed=2).save(model)
        with open(mtx_file) as fh:
            text = fh.read()
        lines = [
            json.dumps({"id": "a", "op": "predict", "mtx": text}),
            "{broken json",
            json.dumps({"id": "h", "op": "health"}),
            json.dumps({"id": "s", "op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--model", model]) == 0
        out = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in out] == ["ok", "invalid", "ok", "ok"]
        assert out[0]["source"] == "model"
        assert out[1]["code"] == "bad_json"
        assert out[2]["model"]["degraded"] is False

    def test_serve_degraded_start_warns_and_falls_back(
        self, tmp_path, monkeypatch, capsys, mtx_file
    ):
        import io
        import json

        with open(mtx_file) as fh:
            text = fh.read()
        lines = [
            json.dumps({"id": "a", "op": "predict", "mtx": text}),
            json.dumps({"id": "s", "op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--model", str(tmp_path / "ghost.npz")]) == 0
        captured = capsys.readouterr()
        assert "starting degraded" in captured.err
        first = json.loads(captured.out.splitlines()[0])
        assert first["status"] == "fallback"
        assert first["reason"] == "model_unusable"
        assert first["format"] == "csr"


class TestChaosServe:
    def test_chaos_serve_drill_passes_and_verifies(self, capsys):
        rc = main([
            "chaos", "--target", "serve", "--requests", "200",
            "--fail", "0.3", "--corrupt", "0.05",
            "--require-breaker", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving drill" in out
        assert "every request answered, no crashes" in out
        assert "corrupt candidate written" in out
        assert "retrained candidate written" in out
        assert "identical to a fresh single-shot predict" in out

    def test_chaos_serve_fault_free_fails_breaker_gate(self, capsys):
        rc = main([
            "chaos", "--target", "serve", "--requests", "30",
            "--fail", "0.0", "--corrupt", "0.0", "--no-swap",
            "--require-breaker",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "expected the circuit breaker to open" in err


class TestPredictBatch:
    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("model") / "selector.npz")
        assert main([
            "train", "--size", "30", "--clusters", "5", "--trials", "3",
            "--out", path,
        ]) == 0
        return path

    @pytest.fixture(scope="class")
    def collection(self, tmp_path_factory):
        from repro.datasets import build_collection, export_collection

        directory = tmp_path_factory.mktemp("coll") / "matrices"
        records = build_collection(seed=7, size=6)
        export_collection(
            records.records if hasattr(records, "records") else records,
            directory,
        )
        return directory

    def _records(self, out: str) -> list[dict]:
        import json

        return [json.loads(line) for line in out.strip().splitlines()]

    def test_batch_matches_single_predict_line_for_line(
        self, model, collection, capsys
    ):
        assert main([
            "predict-batch", str(collection), "--model", model,
        ]) == 0
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert "predict-batch: 6 matrices, 6 model answers" in captured.err
        mtx_files = sorted(collection.glob("*.mtx"))
        assert [r["name"] for r in records] == [p.stem for p in mtx_files]
        for record, path in zip(records, mtx_files):
            assert main(["predict", str(path), "--model", model]) == 0
            line = capsys.readouterr().out
            fmt = line.split("recommended format:")[1].split()[0]
            centroid = int(line.split("centroid #")[1].split()[0])
            assert record["format"] == fmt
            assert record["centroid"] == centroid
            assert record["source"] == "model"

    def test_jobs_and_shard_size_do_not_change_output(
        self, model, collection, tmp_path, capsys
    ):
        outputs = []
        for i, extra in enumerate(
            [[], ["--jobs", "2"], ["--shard-size", "2"],
             ["--jobs", "2", "--shard-size", "1"]]
        ):
            out = tmp_path / f"out{i}.jsonl"
            assert main([
                "predict-batch", str(collection), "--model", model,
                "--out", str(out), *extra,
            ]) == 0
            capsys.readouterr()
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])

    def test_manifest_input_with_comments(
        self, model, collection, tmp_path, capsys
    ):
        names = sorted(p.name for p in collection.glob("*.mtx"))[:3]
        manifest = tmp_path / "matrices.txt"
        manifest.write_text(
            "# three matrices, relative to this manifest\n"
            + "\n".join(f"../{collection.name}/{n}" for n in names)
            + "\n"
        )
        (tmp_path / collection.name).symlink_to(collection)
        assert main([
            "predict-batch", str(manifest), "--model", model,
        ]) == 0
        records = self._records(capsys.readouterr().out)
        assert [r["name"] + ".mtx" for r in records] == names

    def test_missing_source_exits_2(self, model, capsys):
        assert main([
            "predict-batch", "/nonexistent/dir", "--model", model,
        ]) == 2
        assert "no such directory or manifest" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, model, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "predict-batch", str(empty), "--model", model,
        ]) == 2
        assert "no matrices found" in capsys.readouterr().err

    def test_unusable_model_falls_back_and_strict_fails(
        self, collection, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.npz")
        assert main([
            "predict-batch", str(collection), "--model", missing,
        ]) == 0
        records = self._records(capsys.readouterr().out)
        assert all(r["source"] == "fallback" for r in records)
        assert all(r["format"] == "csr" for r in records)
        assert main([
            "predict-batch", str(collection), "--model", missing,
            "--strict",
        ]) == 1
        capsys.readouterr()


class TestPredictBatchTracing:
    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        from repro.serving.drill import synthetic_frozen_selector

        path = str(tmp_path_factory.mktemp("tmodel") / "selector.npz")
        synthetic_frozen_selector(seed=3).save(path)
        return path

    @pytest.fixture(scope="class")
    def collection(self, tmp_path_factory):
        from repro.datasets import build_collection, export_collection

        directory = tmp_path_factory.mktemp("tcoll") / "matrices"
        records = build_collection(seed=9, size=8)
        export_collection(
            records.records if hasattr(records, "records") else records,
            directory,
        )
        return directory

    def test_profiled_parallel_run_stitches_one_trace(
        self, model, collection, tmp_path, capsys
    ):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main([
            "predict-batch", str(collection), "--model", model,
            "--jobs", "4", "--shard-size", "2",
            "--profile", str(trace),
        ]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        (request,) = by_name["inference.request"]
        trace_id = request["args"]["trace"]
        shards = by_name["inference.shard"]
        assert sorted(s["args"]["shard"] for s in shards) == [0, 1, 2, 3]
        chunks = by_name["runtime.worker_chunk"]
        assert chunks
        # One trace: every worker chunk rode back under the request id.
        assert all(c["args"]["trace"] == trace_id for c in chunks)
        # Shard spans are descendants of the request root.
        ids = {request["args"]["id"]}
        changed = True
        while changed:
            changed = False
            for e in events:
                if e["args"]["parent"] in ids and e["args"]["id"] not in ids:
                    ids.add(e["args"]["id"])
                    changed = True
        assert all(s["args"]["id"] in ids for s in shards)

    def test_output_bytes_identical_with_and_without_profile(
        self, model, collection, tmp_path, capsys
    ):
        outputs = []
        for i, extra in enumerate([
            ["--jobs", "1"],
            ["--jobs", "4"],
            ["--jobs", "1", "--profile", str(tmp_path / "t1.jsonl")],
            ["--jobs", "4", "--profile", str(tmp_path / "t4.jsonl")],
        ]):
            out = tmp_path / f"out{i}.jsonl"
            assert main([
                "predict-batch", str(collection), "--model", model,
                "--out", str(out), *extra,
            ]) == 0
            capsys.readouterr()
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])


class TestServeAccessLog:
    def test_serve_writes_access_log(
        self, tmp_path, monkeypatch, capsys, mtx_file
    ):
        import io
        import json

        from repro.obs import read_events
        from repro.serving.drill import synthetic_frozen_selector

        model = str(tmp_path / "selector.npz")
        synthetic_frozen_selector(seed=2).save(model)
        log_path = tmp_path / "access.jsonl"
        with open(mtx_file) as fh:
            text = fh.read()
        lines = [
            json.dumps({"id": "a", "op": "predict", "mtx": text}),
            "{broken json",
            json.dumps({"id": "s", "op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main([
            "serve", "--model", model, "--access-log", str(log_path),
        ]) == 0
        responses = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()]
        # Trace ids live in the access log only, never in responses.
        assert all("trace" not in r for r in responses)
        events = read_events(str(log_path))
        assert [e["status"] for e in events] == ["ok", "invalid", "ok"]
        assert events[0]["op"] == "predict"
        assert len(events[0]["trace"]) == 32
        assert events[0]["latency_ms"] > 0

    def test_serve_answers_metrics_and_healthz_ops(
        self, tmp_path, monkeypatch, capsys, mtx_file
    ):
        import io
        import json

        from repro.serving.drill import synthetic_frozen_selector

        model = str(tmp_path / "selector.npz")
        synthetic_frozen_selector(seed=2).save(model)
        with open(mtx_file) as fh:
            text = fh.read()
        lines = [
            json.dumps({"id": "a", "op": "predict", "mtx": text}),
            json.dumps({"id": "m", "op": "metrics"}),
            json.dumps({"id": "z", "op": "healthz"}),
            json.dumps({"id": "s", "op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--model", model]) == 0
        out = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
        metrics = out[1]
        assert metrics["op"] == "metrics"
        assert metrics["quantiles_ms"]["p50"] is not None
        assert metrics["metrics"]["serving.latency_seconds"]["count"] >= 1
        assert "serving.requests" in metrics["metrics"]
        healthz = out[2]
        assert healthz["op"] == "healthz"
        assert healthz["state"] == "ok"
        assert healthz["breaker_state"] == "closed"


class TestObsCommands:
    def _write_metrics(self, tmp_path, p99=0.005):
        import json

        from repro.obs import Histogram, LATENCY_BUCKETS

        hist = Histogram("serving.latency_seconds", buckets=LATENCY_BUCKETS)
        for _ in range(100):
            hist.observe(p99)
        snap = {
            "serving.latency_seconds": hist.snapshot(),
            "serving.shed": {"type": "counter", "value": 1.0},
            "serving.admitted": {"type": "counter", "value": 99.0},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snap), encoding="utf-8")
        return str(path)

    def _write_slo(self, tmp_path, max_p99):
        import json

        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [{
            "name": "p99 latency",
            "metric": "serving.latency_seconds",
            "quantile": 0.99,
            "max": max_p99,
            "required": True,
        }]}), encoding="utf-8")
        return str(path)

    def test_report_passes_within_slo(self, tmp_path, capsys):
        rc = main([
            "obs", "report",
            "--slo", self._write_slo(tmp_path, max_p99=1.0),
            "--metrics", self._write_metrics(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] p99 latency" in out
        assert "1/1 SLOs met" in out

    def test_report_exits_nonzero_on_p99_violation(self, tmp_path, capsys):
        rc = main([
            "obs", "report",
            "--slo", self._write_slo(tmp_path, max_p99=1e-6),
            "--metrics", self._write_metrics(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] p99 latency" in out
        assert "1 violated" in out

    def test_report_bad_slo_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "obs", "report",
            "--slo", str(tmp_path / "missing.json"),
            "--metrics", self._write_metrics(tmp_path),
        ])
        assert rc == 2
        assert "cannot read SLO file" in capsys.readouterr().err

    def test_report_bad_metrics_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "obs", "report",
            "--slo", self._write_slo(tmp_path, max_p99=1.0),
            "--metrics", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        assert "repro obs report" in capsys.readouterr().err


class TestChaosMetricsOut:
    def test_chaos_serve_exports_counters_for_slo_report(
        self, tmp_path, capsys
    ):
        import json

        metrics_path = tmp_path / "chaos_metrics.json"
        rc = main([
            "chaos", "--target", "serve", "--requests", "80",
            "--burst", "16", "--fail", "0.3", "--no-swap",
            "--metrics-out", str(metrics_path),
        ])
        capsys.readouterr()
        assert rc == 0
        snap = json.loads(metrics_path.read_text())
        assert snap["serving.shed"]["value"] > 0
        assert snap["serving.admitted"]["value"] > 0
        assert "serving.breaker.open_seconds" in snap
        assert snap["serving.latency_seconds"]["count"] > 0
        assert any(k.startswith("serving.gateway.rejected") for k in snap)
        # The exported snapshot feeds straight into the SLO gate.
        assert main([
            "obs", "report",
            "--slo", "benchmarks/slo_permissive.json",
            "--metrics", str(metrics_path),
        ]) == 0
        assert "SLOs met" in capsys.readouterr().out
