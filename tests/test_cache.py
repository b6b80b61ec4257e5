"""Tests for the content-addressed result cache (repro.cache).

Covers the satellite checklist: tier behaviour (memory LRU parity, disk
promote), the self-verifying on-disk entry format (corrupt / truncated /
mismatched entries evicted, never crashing), atomic concurrent writes, the
runner wiring (bit-for-bit cached == fresh, ``cache="off"`` byte-identical
to a cache-less run, version-in-key invalidation), and the ``repro cache``
CLI subcommand.
"""

import hashlib
import json
import multiprocessing

import pytest

import repro
import repro.cache
from repro.api import (
    ArchitectureSpec,
    CorrelatedFaultSpec,
    ExperimentRunner,
    ExperimentSpec,
    Scenario,
    TraceSpec,
)
from repro.api.spec import WorkloadSpec
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    clear_disk_cache,
    clear_memory_cache,
    content_key,
    disk_cache_info,
)
from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets an empty disk tier under tmp and an empty memory tier."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    yield tmp_path / "cache"
    clear_memory_cache()


def small_spec(experiments=("waste",), **kwargs):
    scenario_overrides = {
        "trace": TraceSpec(days=15, seed=348),
        "architectures": (ArchitectureSpec(name="NVL-72"),),
        "tp_sizes": (32,),
        "n_nodes": 144,
        "job_gpus": 256,
    }
    scenario_overrides.update(kwargs.pop("scenario", {}))
    return ExperimentSpec.of(
        scenario=Scenario(name="cache-test", **scenario_overrides),
        experiments=experiments,
        **kwargs,
    )


ROWS = [{"experiment": "waste", "metrics": {"x": 0.5}}]


class TestContentKey:
    def test_key_is_order_independent(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_different_bodies_differ(self):
        assert content_key({"a": 1}) != content_key({"a": 2})


class TestTiers:
    def test_off_mode_is_a_no_op(self, isolated_cache):
        cache = ResultCache("off", isolated_cache)
        assert cache.put("00" * 32, ROWS) is False
        assert cache.get("00" * 32) is None
        assert disk_cache_info(isolated_cache).entries == 0

    def test_memory_round_trip_without_disk(self, isolated_cache):
        cache = ResultCache("memory", isolated_cache)
        key = content_key({"k": 1})
        assert cache.put(key, ROWS) is True
        assert cache.get(key) == ROWS
        assert disk_cache_info(isolated_cache).entries == 0

    def test_memory_hits_never_alias_the_stored_rows(self, isolated_cache):
        cache = ResultCache("memory", isolated_cache)
        key = content_key({"k": 2})
        cache.put(key, ROWS)
        first = cache.get(key)
        first[0]["metrics"]["x"] = 99.0
        assert cache.get(key) == ROWS

    def test_disk_round_trip_and_layout(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"k": 3})
        assert cache.put(key, ROWS) is True
        path = cache.entry_path(key)
        assert path == isolated_cache / f"v{CACHE_SCHEMA_VERSION}" / key[:2] / f"{key}.json"
        assert path.is_file()
        clear_memory_cache()
        assert cache.get(key) == ROWS

    def test_disk_hit_promotes_into_memory(self, isolated_cache):
        disk = ResultCache("disk", isolated_cache)
        key = content_key({"k": 4})
        disk.put(key, ROWS)
        clear_memory_cache()
        assert disk.get(key) == ROWS
        # Promoted: a memory-only cache now sees it too.
        assert ResultCache("memory", isolated_cache).get(key) == ROWS

    def test_memory_lru_evicts_oldest(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MEMORY_ENTRIES", "2")
        cache = ResultCache("memory", isolated_cache)
        keys = [content_key({"k": i}) for i in range(3)]
        for key in keys:
            cache.put(key, ROWS)
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) == ROWS
        assert cache.get(keys[2]) == ROWS

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        cache = ResultCache("disk", blocker / "cache")
        key = content_key({"k": 5})
        assert cache.put(key, ROWS) is False
        assert cache.get(key) == ROWS  # memory tier still served it

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown cache mode"):
            ResultCache("ttl")


def read_entry(path):
    """A v2 disk entry as (header dict, row bytes)."""
    head, body = path.read_bytes().split(b"\n", 1)
    return json.loads(head), body


def write_entry(path, header, body):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_json(header).encode() + b"\n" + body)


class TestEntryValidation:
    def _write(self, isolated_cache, case, body=None):
        """Write a valid v2 entry for ``case`` whose digest covers ``body``.

        ``body`` defaults to ROWS' canonical JSON, so an eviction test that
        passes another body breaks exactly the check it names.
        """
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": case})
        body = canonical_json(ROWS).encode() if body is None else body
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "package_version": "0",
            "rows_sha256": hashlib.sha256(body).hexdigest(),
        }
        write_entry(cache.entry_path(key), header, body)
        clear_memory_cache()
        return cache, key, cache.entry_path(key)

    def test_valid_entry_is_a_hit(self, isolated_cache):
        cache, key, path = self._write(isolated_cache, "valid")
        assert cache.get(key) == ROWS
        assert path.exists()

    def test_corrupt_json_is_evicted(self, isolated_cache):
        cache, key, path = self._write(isolated_cache, "corrupt", body=b"{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_header_is_evicted(self, isolated_cache):
        cache, key, path = self._write(isolated_cache, "header")
        _, body = read_entry(path)
        path.write_bytes(b"{not json\n" + body)
        assert cache.get(key) is None
        assert not path.exists()

    def test_truncated_entry_is_evicted(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "truncated"})
        cache.put(key, ROWS)
        path = cache.entry_path(key)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        clear_memory_cache()
        assert cache.get(key) is None
        assert not path.exists()

    def test_schema_mismatch_is_evicted(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "schema"})
        cache.put(key, ROWS)
        header, body = read_entry(cache.entry_path(key))
        header["schema"] = CACHE_SCHEMA_VERSION + 1
        write_entry(cache.entry_path(key), header, body)
        clear_memory_cache()
        assert cache.get(key) is None
        assert not cache.entry_path(key).exists()

    def test_key_mismatch_is_evicted(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key, other = content_key({"case": "key"}), content_key({"case": "other"})
        cache.put(other, ROWS)
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(cache.entry_path(other).read_text())  # entry claims ``other``
        clear_memory_cache()
        assert cache.get(key) is None
        assert not path.exists()

    def test_row_digest_mismatch_is_evicted(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "digest"})
        cache.put(key, ROWS)
        header, _ = read_entry(cache.entry_path(key))
        write_entry(
            cache.entry_path(key), header, canonical_json([{"metrics": {"x": 0.999}}]).encode()
        )
        clear_memory_cache()
        assert cache.get(key) is None

    def test_row_edit_that_stays_valid_json_is_evicted(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "edit"})
        cache.put(key, ROWS)
        path = cache.entry_path(key)
        header, body = read_entry(path)
        edited = body.replace(b"0.5", b"0.6")
        assert edited != body and json.loads(edited)  # still valid JSON rows
        write_entry(path, header, edited)
        clear_memory_cache()
        assert cache.get(key) is None
        assert not path.exists()

    def test_disk_hit_serializes_nothing(self, isolated_cache, monkeypatch):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "no-reserialize"})
        cache.put(key, ROWS)
        clear_memory_cache()
        calls = []
        serialize = repro.cache.canonical_json
        monkeypatch.setattr(
            repro.cache, "canonical_json", lambda value: calls.append(value) or serialize(value)
        )
        assert cache.get(key) == ROWS  # disk hit, promoted into memory
        assert cache.get(key) == ROWS  # memory hit
        assert calls == []

    def test_entry_records_package_version(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "version"})
        cache.put(key, ROWS)
        header, _ = read_entry(cache.entry_path(key))
        assert header["package_version"] == str(getattr(repro, "__version__", "0"))

    def test_entry_is_a_header_line_then_the_rows(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        key = content_key({"case": "layout"})
        cache.put(key, ROWS)
        header, body = read_entry(cache.entry_path(key))
        assert sorted(header) == ["key", "package_version", "rows_sha256", "schema"]
        assert (header["schema"], header["key"]) == (CACHE_SCHEMA_VERSION, key)
        assert body == canonical_json(ROWS).encode()
        assert header["rows_sha256"] == hashlib.sha256(body).hexdigest()

    def test_clear_disk_cache_only_touches_version_dirs(self, isolated_cache):
        cache = ResultCache("disk", isolated_cache)
        cache.put(content_key({"case": "clear"}), ROWS)
        stray = isolated_cache / "unrelated.json"
        stray.write_text("{}")
        assert clear_disk_cache(isolated_cache) == 1
        assert stray.exists()
        assert disk_cache_info(isolated_cache).entries == 0


def _hammer_put(directory: str, key: str, payload_value: int, iterations: int) -> None:
    cache = ResultCache("disk", directory)
    rows = [{"metrics": {"value": payload_value}}]
    for _ in range(iterations):
        cache.put(key, rows)


class TestConcurrentWriters:
    def test_no_torn_reads_under_two_process_writes(self, isolated_cache):
        key = content_key({"case": "race"})
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_hammer_put, args=(str(isolated_cache), key, value, 60))
            for value in (1, 2)
        ]
        for proc in writers:
            proc.start()
        reader = ResultCache("disk", isolated_cache)
        try:
            seen = set()
            while any(proc.is_alive() for proc in writers):
                clear_memory_cache()
                rows = reader.get(key)
                if rows is not None:
                    seen.add(rows[0]["metrics"]["value"])
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        # Every observed read was one writer's complete payload, never torn.
        assert seen <= {1, 2}
        clear_memory_cache()
        assert reader.get(key)[0]["metrics"]["value"] in (1, 2)


class TestRunnerWiring:
    def test_digest_ignores_cache_mode(self):
        digests = {small_spec(cache=mode).digest() for mode in ("off", "memory", "disk")}
        assert len(digests) == 1

    def test_spec_serialization_omits_cache_off(self):
        assert "cache" not in small_spec().to_dict()
        data = small_spec(cache="disk").to_dict()
        assert data["cache"] == "disk"
        assert ExperimentSpec.from_dict(data).cache == "disk"

    def test_cache_off_output_is_byte_identical_to_uncached(self):
        plain = ExperimentRunner(small_spec(), max_workers=1).run()
        off = ExperimentRunner(small_spec(), max_workers=1, cache="off").run()
        assert off.cache_stats is None
        assert off.to_json() == plain.to_json()
        assert "cache_stats" not in off.to_dict()

    def test_disk_cache_round_trip_is_bit_for_bit(self):
        spec = small_spec(experiments=("waste", "mfu"))
        fresh = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        n_tasks = len(ExperimentRunner(spec).tasks())
        assert fresh.cache_stats.hits == 0
        assert fresh.cache_stats.misses == n_tasks
        assert fresh.cache_stats.stored == n_tasks
        warm = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        assert warm.cache_stats.hits == n_tasks
        assert warm.cache_stats.misses == 0
        assert warm.results == fresh.results
        assert json.dumps([r.to_dict() for r in warm]) == json.dumps(
            [r.to_dict() for r in fresh]
        )

    def test_disk_hits_survive_memory_clear(self, isolated_cache):
        spec = small_spec(cache="disk")
        fresh = ExperimentRunner(spec, max_workers=1).run()
        clear_memory_cache()
        warm = ExperimentRunner(spec, max_workers=1).run()
        assert warm.cache_stats.hits == len(warm)
        assert warm.results == fresh.results

    def test_memory_mode_touches_no_disk(self, isolated_cache):
        spec = small_spec(cache="memory")
        ExperimentRunner(spec, max_workers=1).run()
        warm = ExperimentRunner(spec, max_workers=1).run()
        assert warm.cache_stats.hits == len(warm)
        assert disk_cache_info(isolated_cache).entries == 0

    def test_multi_seed_results_cache_bit_for_bit(self):
        spec = small_spec(num_seeds=3)
        fresh = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        warm = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        assert warm.cache_stats.hits == len(warm)
        assert warm.results == fresh.results
        assert fresh[0].metric("num_seeds") == 3

    def test_task_key_excludes_execution_knobs(self):
        spec = small_spec()
        runner = ExperimentRunner(spec, max_workers=1)
        payloads = [dict(t, spec=spec.to_dict()) for t in runner.tasks()]
        other = ExperimentRunner(spec, max_workers=4, cache="disk")
        assert runner._task_cache_key(payloads[0]) == other._task_cache_key(payloads[0])

    def test_task_key_includes_package_version(self, monkeypatch):
        spec = small_spec()
        runner = ExperimentRunner(spec)
        payload = dict(runner.tasks()[0], spec=spec.to_dict())
        before = runner._task_cache_key(payload)
        monkeypatch.setattr(repro, "__version__", "999.0-test", raising=False)
        assert runner._task_cache_key(payload) != before

    def test_correlated_spec_sweep_hit_equals_miss(self):
        # A correlated-overlay sweep (the blast_radius experiment fans out
        # placements x correlations internally) must cache bit-for-bit: the
        # warm run serves every task from the store and the rows agree.
        spec = small_spec(
            experiments=("blast_radius",),
            scenario={
                "trace": TraceSpec(
                    days=10, seed=348,
                    correlated=CorrelatedFaultSpec(domain_rate_per_day=1.0),
                ),
                "n_nodes": 64,
                "workload": WorkloadSpec(n_jobs=6, seed=1, median_work_hours=120.0),
            },
            options={"blast_radius": {"correlations": [0.0, 1.0]}},
        )
        fresh = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        warm = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        n_tasks = len(ExperimentRunner(spec).tasks())
        assert fresh.cache_stats.misses == n_tasks
        assert warm.cache_stats.hits == n_tasks
        assert warm.cache_stats.misses == 0
        assert warm.results == fresh.results
        assert json.dumps([r.to_dict() for r in warm]) == json.dumps(
            [r.to_dict() for r in fresh]
        )

    def test_correlated_overlay_changes_the_task_key(self):
        plain = small_spec()
        correlated = small_spec(
            scenario={"trace": TraceSpec(
                days=15, seed=348, correlated=CorrelatedFaultSpec(correlation=0.5)
            )},
        )
        runner = ExperimentRunner(plain, max_workers=1)
        key_plain = runner._task_cache_key(
            dict(runner.tasks()[0], spec=plain.to_dict())
        )
        other = ExperimentRunner(correlated, max_workers=1)
        key_corr = other._task_cache_key(
            dict(other.tasks()[0], spec=correlated.to_dict())
        )
        assert key_plain != key_corr

    def test_parallel_and_serial_agree_through_the_cache(self):
        spec = small_spec(
            experiments=("waste",),
            scenario={"tp_sizes": (16, 32), "architectures": (
                ArchitectureSpec(name="NVL-72"), ArchitectureSpec(name="InfiniteHBD(K=3)"),
            )},
        )
        parallel = ExperimentRunner(spec, max_workers=4, cache="disk").run()
        clear_memory_cache()
        clear_disk_cache()
        serial = ExperimentRunner(spec, max_workers=1, cache="disk").run()
        assert parallel.results == serial.results


class TestCacheCLI:
    def test_run_cache_flag_reports_stats(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec().to_json())
        assert main(["run", "--spec", str(spec_path), "--cache", "disk"]) == 0
        assert "cache[disk] hits=0 misses=1 stored=1" in capsys.readouterr().out
        assert main(["run", "--spec", str(spec_path), "--cache", "disk"]) == 0
        assert "cache[disk] hits=1 misses=0 stored=0" in capsys.readouterr().out

    def test_run_without_cache_flag_prints_no_stats(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec().to_json())
        assert main(["run", "--spec", str(spec_path)]) == 0
        assert "cache[" not in capsys.readouterr().out

    def test_cache_info_and_clear(self, capsys, isolated_cache):
        ResultCache("disk", isolated_cache).put(content_key({"cli": 1}), ROWS)
        assert main(["cache", "info", "--dir", str(isolated_cache)]) == 0
        out = capsys.readouterr().out
        assert f"directory={isolated_cache}" in out
        assert "entries=1" in out
        assert main(["cache", "clear", "--dir", str(isolated_cache)]) == 0
        assert "removed 1 disk entries" in capsys.readouterr().out
        assert disk_cache_info(isolated_cache).entries == 0

    def test_cache_info_defaults_to_env_dir(self, capsys, isolated_cache):
        assert main(["cache", "info"]) == 0
        assert f"directory={isolated_cache}" in capsys.readouterr().out
