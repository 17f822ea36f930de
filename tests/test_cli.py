import json
import time

import pytest

from invhol import catalog, heap, holomorph, io, morphisms, polycyclic
from invhol.cli import main
from invhol.errors import ParseError

import oracles


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    zoo = catalog.standard_examples()
    paths = {}
    for name in ["Z2", "Z3", "I2", "S3", "chain2", "clifford4", "diamond"]:
        p = d / f"{name.lower()}.json"
        io.write_semigroup(p, zoo[name])
        paths[name] = str(p)
    return d, paths


def test_verify_valid_file(files, capsys):
    _, paths = files
    assert main(["verify", paths["I2"]]) == 0
    out = capsys.readouterr().out
    assert "table_is_inverse_semigroup" in out
    assert "overall: pass" in out


def test_verify_bad_table_exits_1(files, capsys):
    d, _ = files
    bad = d / "bad.json"
    bad.write_text('{"names": ["a", "b"], "mul": [[1, 1], [0, 0]]}\n')
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_verify_empty_file_exits_2(files, capsys):
    d, _ = files
    empty = d / "empty.json"
    empty.write_text("")
    assert main(["verify", str(empty)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "hol", "sha", "esn", "flows"])
def test_empty_table_exits_2(tmp_path, capsys, command):
    empty = tmp_path / "empty.json"
    empty.write_text('{"mul": []}\n')
    assert main([command, str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty}: multiplication table is empty\n"


Z2_ARROWS = '{"arrows": [[0, 0, 0], [0, 0, 1]], '
Z2_GROUPOID = '"compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], "leq": [[0, 0], [1, 1]]}\n'


@pytest.mark.parametrize("command,text,message", [
    ("hol", None, "cannot read {path}: "),
    ("verify", '{"names": []}\n', "{path}: neither a semigroup nor a groupoid file"),
    ("hol", '{"mul": 3}\n', '{path}: "mul" must be a list of rows'),
    ("hol", '{"names": [0, 1], "mul": [[0, 1], [1, 0]]}\n',
     '{path}: "names" must be a list of strings'),
    ("hol", "[[0]]\n", '{path}: expected an object with a "mul" table'),
    # JSON true is a Python int, but no element index
    ("verify", '{"mul": [[0, true], [true, 0]]}\n', "{path}: table entry True out of range"),
    ("hol", '{"mul": [[0, 0], [0, 1]], "identity": true}\n',
     "{path}: stated identity True disagrees with the table (1)"),
    ("verify", Z2_ARROWS.replace("1]]", "true]]") + Z2_GROUPOID,
     "{path}: malformed groupoid data: inverse True out of range"),
    ("verify", Z2_ARROWS + Z2_GROUPOID.replace("[0, 1, 1]", "[0, true, 1]"),
     "{path}: malformed groupoid data: composable arrow True out of range"),
    ("flows", Z2_ARROWS + Z2_GROUPOID.replace('[1, 1]]', '[true, true]]'),
     "{path}: malformed groupoid data: order pair [True, True] out of range"),
    # a stated identity or zero is an index, not a float that equals one
    ("verify", '{"mul": [[0, 0], [0, 1]], "identity": 1.0, "zero": 0.0}\n',
     "{path}: stated identity 1.0 disagrees with the table (1)"),
    ("verify", '{"mul": [[0, 0], [0, 1]], "zero": 0.0}\n',
     "{path}: stated zero 0.0 disagrees with the table (0)"),
    # Z2's groupoid with the composite of (1, 1) listed twice, in either order
    ("verify", Z2_ARROWS + Z2_GROUPOID.replace("[1, 1, 0]", "[1, 1, 1], [1, 1, 0]"),
     "{path}: malformed groupoid data: composite of [1, 1] listed twice"),
    ("verify", Z2_ARROWS + Z2_GROUPOID.replace("[1, 1, 0]", "[1, 1, 0], [1, 1, 1]"),
     "{path}: malformed groupoid data: composite of [1, 1] listed twice"),
    # Z2's groupoid with one name for its two arrows
    ("flows", Z2_ARROWS + Z2_GROUPOID.replace('}', ', "names": ["only"]}'),
     "{path}: malformed groupoid data: names and arrow count disagree"),
])
def test_unreadable_input_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert captured.err.count("\n") == 1


def test_groupoid_index_out_of_range_exits_2(tmp_path, capsys):
    bad = tmp_path / "badg.json"
    # one identity arrow whose inverse points past the arrow list
    bad.write_text('{"arrows": [[0, 0, 3]], "compose": [[0, 0, 0]], "leq": [[0, 0]]}\n')
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: malformed groupoid data: inverse 3 out of range\n"
    )


def test_groupoid_order_pair_out_of_range_exits_2(files, tmp_path, capsys):
    # Z2's groupoid with a negative order pair, which list indexing would
    # read as the pair (0, 0)
    _, paths = files
    from invhol import groupoid as gp

    obj = io.groupoid_to_dict(gp.esn_forward(io.read_semigroup(paths["Z2"])))
    obj["leq"] = [[-2, -2], [1, 1]]
    bad = tmp_path / "badg.json"
    io._dump(obj, bad)
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}: malformed groupoid data: order pair [-2, -2] out of range\n"
    )


def test_verify_corrupted_groupoid_exits_1(files, capsys, tmp_path):
    _, paths = files
    from invhol import groupoid as gp

    G = gp.esn_forward(io.read_semigroup(paths["I2"]))
    obj = io.groupoid_to_dict(G)
    # erase the mirrored pair of a strict comparison between non-self-inverse
    # arrows, so order-compatibility of inversion breaks
    strict = next(
        [a, b] for [a, b] in obj["leq"]
        if [a, b] != [G.inv[a], G.inv[b]] and [G.inv[a], G.inv[b]] in obj["leq"]
    )
    obj["leq"].remove([G.inv[strict[0]], G.inv[strict[1]]])
    bad = tmp_path / "badg.json"
    io._dump(obj, bad)
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] OG1_inversion_ordered" in out


def test_flows_on_invalid_groupoid_is_a_usage_error(tmp_path, capsys):
    # two arrows on one identity, the composite of arrow 1 with itself missing:
    # the flow search would read it, so the groupoid is rejected first
    bad = tmp_path / "missing.json"
    bad.write_text('{"arrows": [[0, 0, 0], [0, 0, 1]], '
                   '"compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1]], "leq": [[0, 0], [1, 1]]}\n')
    assert main(["flows", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}: not an ordered groupoid, composition_domain fails: "
        "composability of (1,1) disagrees with range/domain\n"
    )


@pytest.mark.parametrize("command", ["hol", "sha", "esn"])
def test_dump_to_unwritable_path_is_a_usage_error(files, tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.json"
    assert main([command, files[1]["Z3"], "--dump", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_deeply_nested_expression(capsys):
    deep = 10000
    assert main(["poly", "(" * deep + "a" + ")" * deep + "^-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == ["value: (a)^-1"]
    assert main(["poly", "(" * deep + "a"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: missing closing parenthesis\n")


def test_budget_exhaustion_exits_3(files, capsys):
    _, paths = files
    assert main(["hol", paths["I2"], "--budget", "5"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err


def test_hol_counts(files, capsys):
    _, paths = files
    assert main(["hol", paths["Z3"]]) == 0
    out = capsys.readouterr().out
    assert "premorphisms: 3" in out
    assert "holomorph_pairs: 9" in out
    assert "holomorph_units: 6" in out


def test_hol_dump(files, capsys, tmp_path):
    _, paths = files
    dump = tmp_path / "hol.json"
    assert main(["hol", paths["Z2"], "--dump", str(dump)]) == 0
    obj = json.loads(dump.read_text())
    assert len(obj["elements"]) == 4
    assert set(obj["elements"][0]) == {"alpha", "tau"}


def test_sha_counts(files, capsys):
    _, paths = files
    assert main(["sha", paths["Z3"]]) == 0
    out = capsys.readouterr().out
    assert "heap_monoid_size: 9" in out


def test_sha_embeds_each_map_once(files, capsys, monkeypatch):
    # verify_sha_embedding and verify_sha_monoid_iso read one embedding per map
    _, paths = files
    calls, embed = [], heap.embed
    monkeypatch.setattr(heap, "embed", lambda S, eta: calls.append(eta) or embed(S, eta))
    assert main(["sha", paths["I2"]]) == 0
    assert "monoid_isomorphism" in capsys.readouterr().out
    assert calls == heap.enumerate_sha(io.read_semigroup(paths["I2"]))


def test_esn_round_trip_and_flows(files, capsys, tmp_path):
    _, paths = files
    gpath = tmp_path / "i2g.json"
    assert main(["esn", paths["I2"], "--dump", str(gpath)]) == 0
    capsys.readouterr()
    assert main(["verify", str(gpath)]) == 0
    capsys.readouterr()
    assert main(["flows", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "flows: 8" in out


def test_flows_accepts_semigroup(files, capsys):
    _, paths = files
    assert main(["flows", paths["chain2"]]) == 0
    out = capsys.readouterr().out
    assert "ordered_flows: 1" in out


def test_flows_honour_cap_size(files, capsys):
    # I2 has 7 elements, so the table loads under cap 7, and 8 flows
    _, paths = files
    assert main(["flows", paths["I2"], "--cap-size", "8"]) == 0
    assert "flows: 8" in capsys.readouterr().out
    assert main(["flows", paths["I2"], "--cap-size", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: requested size 8 exceeds cap 7\n"
    assert captured.out.endswith("using its ordered groupoid\noverall: incomplete\n")


@pytest.mark.parametrize("flags,size,cap", [
    # three letters: 1,601 window elements, 85,841 distinct products of two
    (["--alphabet", "3"], 85841, 5000),
    (["--cap-size", "225"], 226, 225),
    (["--cap-size", "3585"], 3586, 3585),
])
def test_poly_arith_honours_cap_size(capsys, flags, size, cap):
    # the window and its distinct products are counted before any product
    # is taken one pair at a time
    start = time.perf_counter()
    assert main(["poly", "--check", "arith", *flags]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == f"error: requested size {size} exceeds cap {cap}\n"
    assert captured.out.endswith("seed: 0\noverall: incomplete\n")


@pytest.mark.parametrize("flags,size,cap", [
    # 26 letters: a store window of 5,646,683,826,135 words
    (["--alphabet", "26"], 5646683826135, 5000),
    # three letters at the default window L = 3: store 9
    (["--alphabet", "3"], 29524, 5000),
    (["--cap-size", "1022"], 1023, 1022),
])
def test_poly_zappa_honours_cap_size(capsys, flags, size, cap):
    # the store window is counted before any suffix map is built
    start = time.perf_counter()
    assert main(["poly", "--check", "zappa", *flags]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == f"error: requested size {size} exceeds cap {cap}\n"
    assert captured.out.endswith("seed: 0\noverall: incomplete\n")


@pytest.mark.parametrize("check,alphabet,size", [
    # 21 letter maps per letter, 194,481 at four letters
    ("endo", "4", 21**4),
    ("endo", "26", 703**26),
    # 18,279 words in the window L = 3 over 26 letters
    ("functors", "26", 18279),
    # 730 elements in the element window L = 1, each heap instance a triple
    ("heap", "26", 730**3),
], ids=["endo-4", "endo-26", "functors-26", "heap-26"])
def test_poly_sweeps_honour_cap_size(capsys, check, alphabet, size):
    # the letter maps, words, elements and heap instances are counted
    # before any sweep
    start = time.perf_counter()
    assert main(["poly", "--check", check, "--alphabet", alphabet]) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == f"error: requested size {size} exceeds cap 5000\n"
    assert captured.out.endswith("seed: 0\noverall: incomplete\n")


def test_poly_heap_runs_past_the_default_cap(capsys):
    # 17,576 heap instances at four letters: the stated boundary still fails
    assert main(["poly", "--check", "heap", "--alphabet", "4", "--cap-size", "20000"]) == 1
    assert "[FAIL] constant_pair_zero_iff_w_eq_s_eq_t" in capsys.readouterr().out


def test_poly_arith_code_overflow_is_an_error_line(capsys):
    # the cap lets the window L = 11 in, and its pair codes would leave int64
    assert main(["poly", "--check", "arith", "--maxlen", "11",
                 "--cap-size", "100000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: pair codes of window L=11 over 2 letters overflow int64\n"
    assert captured.out.endswith("overall: incomplete\n")


def test_poly_zappa_code_overflow_is_an_error_line(capsys, monkeypatch):
    # a constant map whose image of 64 letters has a length-lex code past
    # int64 stops the check through the suffix maps' guard
    constant = polycyclic.SuffixMap.constant
    monkeypatch.setattr(polycyclic.SuffixMap, "constant",
                        staticmethod(lambda n, L, t: constant(n, L, t * 32)))
    assert main(["poly", "--check", "zappa"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: image codes of length 64 over 2 letters overflow int64\n"
    assert captured.out.endswith("overall: incomplete\n")


def test_poly_expression(capsys):
    assert main(["poly", "(ab)^-1 a * b^-1 1", "--alphabet", "2"]) == 0
    out = capsys.readouterr().out
    assert "value: 0" in out


def test_poly_expression_parse_error(capsys):
    assert main(["poly", "(ab", "--alphabet", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_poly_checks(capsys):
    assert main(["poly", "--check", "bicyclic", "--maxlen", "2"]) == 0
    out = capsys.readouterr().out
    assert "bicyclic" in out


def test_poly_endo_sweep(capsys):
    assert main(["poly", "--check", "endo", "--maxlen", "2"]) == 0
    out = capsys.readouterr().out
    assert "49 letter maps" in out


def test_jobs_flag(files, capsys):
    _, paths = files
    assert main(["hol", paths["Z3"], "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "premorphisms: 3" in out


@pytest.mark.parametrize("budget", ["20", "150", None])
@pytest.mark.parametrize("name", ["I2", "S3"])
def test_jobs_share_one_budget(files, capsys, name, budget):
    # --jobs is only echoed: the exit code and the budget line with its
    # partial progress are the serial run's
    _, paths = files
    argv = ["hol", paths[name]] + (["--budget", budget] if budget else [])
    serial = main(argv)
    serial_err = capsys.readouterr().err
    assert main(argv + ["--jobs", "2"]) == serial
    err = capsys.readouterr().err
    assert err == serial_err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_budget_line_reports_partial_progress(files, capsys, jobs):
    _, paths = files
    assert main(["hol", paths["I2"], "--budget", "120", "--jobs", jobs]) == 3
    assert capsys.readouterr().err == (
        "search budget exceeded: visited 121 nodes, found 18 results, budget 120\n"
    )


@pytest.mark.parametrize("name, budget, line", [
    ("I2", "120", "visited 121 nodes, found 18 results, budget 120"),
    ("diamond", "74", "visited 75 nodes, found 35 results, budget 74"),
], ids=["I2", "diamond"])
def test_sha_budget_limits_premorphism_search(files, capsys, name, budget, line):
    # the heap search fits the budget (102 nodes on I2, 64 on diamond) but the
    # premorphism search behind the endomorphism pairs does not
    _, paths = files
    assert main(["sha", paths[name], "--budget", budget]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"search budget exceeded: {line}\n"
    assert "[pass] embedding_injective" in captured.out
    assert "heap monoid vs endomorphism pairs" not in captured.out


@pytest.mark.parametrize("command, searches", [("hol", 2), ("sha", 1)])
def test_every_premorphism_search_gets_the_budget(files, capsys, monkeypatch, command, searches):
    # hol searches twice (its pairs, then the compressed pairs of
    # verify_mon_hol), sha once; each search runs under --budget
    _, paths = files
    budgets = []
    search = morphisms.enumerate_premorphisms

    def recorded(S, *args, **kwargs):
        budgets.append(kwargs.get("budget"))
        return search(S, *args, **kwargs)

    for module in (morphisms, holomorph):
        monkeypatch.setattr(module, "enumerate_premorphisms", recorded)
    assert main([command, paths["I2"], "--budget", "1000"]) == 0
    capsys.readouterr()
    assert budgets == [1000] * searches


def test_jobs_must_be_positive(files, capsys):
    _, paths = files
    assert main(["hol", paths["Z3"], "--jobs", "0"]) == 2


@pytest.mark.parametrize("alphabet", ["0", "27", "-1"])
def test_alphabet_out_of_range_is_a_usage_error(capsys, alphabet):
    # the letters are a..z: outside 1..26 the run stops before any check
    assert main(["poly", "--alphabet", alphabet]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: alphabet size must be between 1 and 26\n")


def test_negative_samples_is_a_usage_error(capsys):
    assert main(["poly", "--check", "zappa", "--samples", "-1", "--maxlen", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: samples must not be negative\n")
    # no sampled map: the check still runs its fixed maps
    assert main(["poly", "--check", "zappa", "--samples", "0", "--maxlen", "1"]) == 0
    assert "samples 0, seed 0" in capsys.readouterr().out


def test_poly_heap_check_reports_failure(capsys):
    # the stated constant-pair boundary w=s=t is false, and its failing line
    # is the report's refutation of it (the true boundary is w = s); exit 1
    assert main(["poly", "--check", "heap", "--maxlen", "2"]) == 1
    out = capsys.readouterr().out
    assert "constant_pair_zero_iff_w_eq_s_eq_t" in out


def test_json_format_mirrors_text(files, capsys):
    _, paths = files
    assert main(["hol", paths["Z2"], "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["counts"]["premorphisms"] == 2
    assert obj["counts"]["holomorph_units"] == 2
    assert obj["ok"] is True
    assert obj["seed"] == 0
    names = {s["title"] for s in obj["sections"]}
    assert any("interchange" in t for t in names)


def test_reports_are_deterministic(files, capsys):
    _, paths = files
    main(["hol", paths["clifford4"]])
    first = capsys.readouterr().out
    main(["hol", paths["clifford4"]])
    second = capsys.readouterr().out
    assert first == second


def test_semigroup_file_round_trip_is_byte_exact(files, tmp_path):
    _, paths = files
    S = io.read_semigroup(paths["I2"])
    again = tmp_path / "again.json"
    io.write_semigroup(again, S)
    assert again.read_bytes() == open(paths["I2"], "rb").read()


def test_file_has_no_trailing_whitespace(files):
    _, paths = files
    for p in paths.values():
        for line in open(p, "rb").read().split(b"\n"):
            assert line == line.rstrip()


def test_read_semigroup_validates_stated_identity(tmp_path):
    p = tmp_path / "wrong.json"
    p.write_text('{"names": ["0", "1"], "mul": [[0, 1], [1, 0]], "identity": 1}\n')
    with pytest.raises(ParseError):
        io.read_semigroup(p)


def test_theta_round_trip(tmp_path):
    p = tmp_path / "theta.json"
    oracles.write_theta(p, (0, 2, 1))
    assert oracles.read_theta(p) == (0, 2, 1)
