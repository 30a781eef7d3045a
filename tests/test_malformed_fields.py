"""Every field of every persisted file kind, set to an ill-typed JSON value or
deleted, and every byte string read as such a file, either loads or raises
DataFormatError (exit 3 on the CLI), never another exception."""
import copy
import functools
import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, acoustic, fuzzy, protocol, puf, substream, suc
from clonebench.errors import DataFormatError

#: 17 JSON values of every type, including empty and nested ones
VALUES = [None, True, False, 0, 1, -1, 123, 1.5, -0.5, 1e300, "", "x", "zz", [], [1], {}, {"a": 1}]
DELETE = object()


def _store(path, nested):
    store = protocol.CrpStore()
    for i in range(2 if nested else 1):
        protocol.enroll(puf.sram_new(64, 3 + i), 2, substream(i, "en"), store, device_id=f"sram-{i}")
    protocol.save_store(store, path)


def _device(path):
    suc.save_device(suc.personalize(suc.SucParams(rounds=4), substream(1, "pd"), "ecu"), path)


def _helper(path):
    params = fuzzy.RepetitionParams(3, 8)
    w = BitString.random(params.code_len, substream(2, "w"))
    fuzzy.save_helper(fuzzy.fe_generate(w, params, 16, substream(3, "fe"))[1], path)


def _fingerprint(path):
    acoustic.save_fingerprint(acoustic.fingerprint(acoustic.structure_new(4, 32)), path)


KINDS = {
    "store": (lambda p: _store(p, False), protocol.load_store),
    "nested-store": (lambda p: _store(p, True), protocol.load_store),
    "device": (_device, suc.load_device),
    "helper": (_helper, fuzzy.load_helper),
    "fingerprint": (_fingerprint, acoustic.load_fingerprint),
}


def _paths(node, prefix=()):
    """Every dict key, and the first element of every list, as a path from the root."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list) and node:
        children = [(0, node[0])]
    else:
        children = []
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_ill_typed_or_missing_field_loads_or_raises_data_format_error(tmp_path, kind):
    write, load = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    write(path)
    good = json.loads(path.read_text())
    escaped = []
    for field in _paths(good):
        for value in VALUES + [DELETE]:
            path.write_text(json.dumps(_mutated(good, field, value)))
            try:
                load(path)
            except DataFormatError:
                pass
            except Exception as exc:  # any other exception is the failure under test
                escaped.append((field, "deleted" if value is DELETE else value, repr(exc)))
    assert escaped == []


#: bytes that are no JSON object the parser can return: not UTF-8, an integer
#: past Python's 4300-digit limit, and arrays nested past the recursion limit
UNDECODABLE = {
    "not-utf8": b"\xff\xfe{",
    "5000-digits": b'{"schema_version": 1, "n_rep": ' + b"7" * 5000 + b"}",
    "100000-deep": b'{"schema_version": 1, "records": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_undecodable_bytes_raise_data_format_error(tmp_path, kind, case):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(UNDECODABLE[case])
    with pytest.raises(DataFormatError):
        KINDS[kind][1](path)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, deadline=None)
@given(raw=st.binary())
def test_any_bytes_load_or_raise_data_format_error(tmp_path_factory, kind, raw):
    path = tmp_path_factory.getbasetemp() / f"{kind}-bytes.json"
    path.write_bytes(raw)
    try:
        KINDS[kind][1](path)
    except DataFormatError:
        pass


@pytest.mark.parametrize(
    "kind, field, forms",
    [
        ("device", ("descriptor", "master_key_hex"), lambda h: [" 0x" + h, "+" + h, h[:10] + "_" + h[10:], "1"]),
        ("helper", ("checksum_hex",), lambda h: [" ".join(h[i : i + 2] for i in range(0, 8, 2)), h[:4] + "\t" + h[4:]]),
    ],
    ids=["device-key", "helper-checksum"],
)
def test_loose_key_and_checksum_hex_raise_data_format_error(tmp_path, kind, field, forms):
    # int(text, 16) and bytes.fromhex take each form; the file needs the exact-width hex it was written with
    write, load = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    write(path)
    good = json.loads(path.read_text())
    for form in forms(functools.reduce(operator.getitem, field, good)):
        path.write_text(json.dumps(_mutated(good, field, form)))
        with pytest.raises(DataFormatError):
            load(path)


def test_device_with_an_sbox_outside_the_class_raises_data_format_error(tmp_path):
    # the identity is a bijection, so only the class's DDT and Walsh audit refuses it
    path = tmp_path / "device.json"
    _device(path)
    good = json.loads(path.read_text())
    path.write_text(json.dumps(_mutated(good, ("descriptor", "sboxes", 0), list(range(16)))))
    with pytest.raises(DataFormatError, match="S-box"):
        suc.load_device(path)
