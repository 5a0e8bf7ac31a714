"""Unit tests for the durable JSON writers in :mod:`repro.ioutil`.

The result store, sweep checkpoints, CLI artifacts and the run ledger all
persist through these three functions, so their guarantees are pinned
here directly: the exact bytes each form writes, that a failed write
leaves the previous file and no temp debris behind, and that the JSONL
reader skips what a crashed writer or a foreign line leaves in a log.
The ledger-level round trip lives in ``tests/unit/test_obs.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import ioutil
from repro.ioutil import append_jsonl, atomic_write_json, read_jsonl

PAYLOAD = {"b": [1, 2], "a": {"z": None, "y": 1.5}}


class TestAtomicWriteJson:
    def test_default_form_is_indented_sorted_with_newline(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, PAYLOAD)
        assert path.read_text() == json.dumps(PAYLOAD, indent=1, sort_keys=True) + "\n"

    def test_compact_form_for_store_blobs(self, tmp_path):
        path = tmp_path / "blob.json"
        atomic_write_json(path, PAYLOAD, indent=None, trailing_newline=False)
        assert path.read_text() == json.dumps(PAYLOAD, sort_keys=True)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        atomic_write_json(path, PAYLOAD)
        assert json.loads(path.read_text()) == PAYLOAD

    def test_relative_path_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        atomic_write_json("out.json", PAYLOAD)
        assert json.loads((tmp_path / "out.json").read_text()) == PAYLOAD
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"old": True})
        atomic_write_json(path, PAYLOAD)
        assert json.loads(path.read_text()) == PAYLOAD
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_unserializable_payload_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, PAYLOAD)
        before = path.read_text()
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert path.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(ioutil.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_json(tmp_path / "out.json", PAYLOAD)
        assert list(tmp_path.iterdir()) == []

    def test_temp_file_sits_beside_the_target_under_the_given_prefix(
        self, tmp_path, monkeypatch
    ):
        renames = []
        real_replace = ioutil.os.replace

        def record(src, dst):
            renames.append((str(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(ioutil.os, "replace", record)
        atomic_write_json(tmp_path / "out.json", PAYLOAD, tmp_prefix=".tmp-")
        atomic_write_json(tmp_path / "other.json", PAYLOAD)
        (first_src, first_dst), (second_src, _) = renames
        assert first_dst == str(tmp_path / "out.json")
        for src, prefix in ((first_src, ".tmp-"), (second_src, ".other.json.")):
            name = src.rsplit("/", 1)[-1]
            assert src.startswith(str(tmp_path) + "/")
            assert name.startswith(prefix) and name.endswith(".tmp")


class TestAppendJsonl:
    def test_line_is_compact_and_sorted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"b": 2, "a": [1, {"d": 4, "c": 3}]})
        assert path.read_text() == '{"a":[1,{"c":3,"d":4}],"b":2}\n'

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "log.jsonl"
        append_jsonl(path, {"a": 1})
        assert read_jsonl(path) == [{"a": 1}]

    def test_unserializable_record_appends_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        with pytest.raises(TypeError):
            append_jsonl(path, {"bad": object()})
        assert path.read_text() == '{"a":1}\n'

    @pytest.mark.parametrize("fsync, barriers", [(True, 1), (False, 0)])
    def test_fsync_flag_sets_the_durability_barrier(
        self, tmp_path, monkeypatch, fsync, barriers
    ):
        calls = []
        monkeypatch.setattr(ioutil.os, "fsync", calls.append)
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1}, fsync=fsync)
        assert len(calls) == barriers
        assert read_jsonl(path) == [{"a": 1}]


class TestReadJsonl:
    def test_skips_blank_and_non_object_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('[1, 2]\n3\n"text"\nnull\n\n   \n  {"a": 1}  \n')
        assert read_jsonl(path) == [{"a": 1}]

    def test_keeps_reading_past_a_corrupt_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')
        append_jsonl(path, {"b": 2})
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_unreadable_path_reads_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path) == []  # a directory, not a log
