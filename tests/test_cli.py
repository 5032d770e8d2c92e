import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cycle_plus_chords, digon_cycle_pair, seventeen_free_edges, two_sum_whitney_flip

import rigidlift
from rigidlift import cli
from rigidlift.cli import main
from rigidlift.divisor import Divisor
from rigidlift.errors import ParseError, ValidationError
from rigidlift.graphio import (
    fixture_path,
    format_divisor,
    format_orientation,
    parse_divisor,
    parse_graph,
    parse_orientation,
)
from rigidlift.multigraph import build_graph
from rigidlift.orcyc import nonrigidity_witness
from rigidlift.orientation import EdgeState, base_orientation


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGraphFormat:
    def test_parse_round_trip(self, K):
        text = "\n".join(
            [f"edge {e} {K.o(e)} {K.t(e)}" for e in K.edge_ids] + ["base r1"]
        )
        assert parse_graph(text) == K

    def test_comments_and_blank_lines(self):
        text = """
        # a triangle
        edge e1 a b   # first
        edge e2 b c
        edge e3 c a
        edge e4 a b
        base e1
        """
        g = parse_graph(text)
        assert g.genus == 2

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("edge e1 a b\nedge e2 a\nbase e1")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("edge e1 a b\nedge e2 b a\nwhat e3")
        with pytest.raises(ParseError, match="missing base"):
            parse_graph("edge e1 a b\nedge e2 b a")
        with pytest.raises(ParseError, match="duplicate base"):
            parse_graph("edge e1 a b\nedge e2 b a\nbase e1\nbase e2")

    def test_build_errors_become_validation_errors(self):
        with pytest.raises(ValidationError):
            parse_graph("edge e1 a a\nedge e2 a b\nbase e1")


class TestDivisorFormat:
    def test_round_trip(self, K):
        d = Divisor(K, {"w1": 2, "w3": -5})
        assert parse_divisor(K, format_divisor(d)) == d

    def test_leading_keyword_optional(self, K):
        assert parse_divisor(K, "w1:1 w2:-1") == parse_divisor(K, "div w1:1 w2:-1")

    def test_zero_divisor(self, K):
        assert format_divisor(Divisor(K)) == "div"
        assert parse_divisor(K, "div") == Divisor(K)

    def test_repeated_vertices_accumulate(self, K):
        assert parse_divisor(K, "w1:1 w1:2") == Divisor(K, {"w1": 3})

    def test_unknown_vertex_rejected(self, K):
        with pytest.raises(ValidationError):
            parse_divisor(K, "nope:1")

    def test_bad_coefficient_rejected(self, K):
        with pytest.raises(ParseError):
            parse_divisor(K, "w1:x")


class TestOrientationFormat:
    def test_round_trip(self, K):
        u = base_orientation(K).with_states(
            {"r2": EdgeState.UNORIENTED, "r3": EdgeState.BACKWARD}
        )
        assert parse_orientation(K, format_orientation(u)) == u

    def test_bioriented_state(self, K):
        u = parse_orientation(K, "r1:X r2:F r3:F r4:F r5:F r6:F")
        assert u.state("r1") is EdgeState.BIORIENTED

    def test_unknown_edge_rejected(self, K):
        with pytest.raises(ValidationError):
            parse_orientation(K, "zz:F")


class TestColonIds:
    """The graph format accepts ids containing `:`; a divisor or orientation
    token splits at its last `:`."""

    GRAPH = "edge e:1 a:x b\nedge e:2 b c:y\nedge e:3 c:y a:x\nedge e:4 a:x b\nbase e:1\n"

    def test_divisor_and_orientation_round_trip(self):
        g = parse_graph(self.GRAPH)
        d = Divisor(g, {"a:x": 2, "c:y": -1})
        assert format_divisor(d) == "div a:x:2 c:y:-1"
        assert parse_divisor(g, format_divisor(d)) == d
        u = base_orientation(g).with_states({"e:1": EdgeState.BACKWARD, "e:2": EdgeState.UNORIENTED})
        assert format_orientation(u) == "orient e:1:B e:2:U e:3:F e:4:F"
        assert parse_orientation(g, format_orientation(u)) == u

    def test_orient_chern_and_liftdiv(self, capsys, tmp_path):
        path = tmp_path / "colon.graph"
        path.write_text(self.GRAPH)
        code, out = run(capsys, ["--no-timings", "orient", str(path), "chern", "e:1:F e:2:F e:3:F e:4:B"])
        assert code == 0
        assert out["chern_class"] == "div a:x:1"
        code, out = run(capsys, ["--no-timings", "orient", str(path), "liftdiv", "c:y:1"])
        assert code == 0
        g = parse_graph(self.GRAPH)
        assert parse_divisor(g, out["chern_class"]).degree == 1
        assert format_orientation(parse_orientation(g, out["orientation"])) == out["orientation"]


class TestCliInfo:
    def test_info_reports_invariants(self, capsys):
        code, out = run(capsys, ["--no-timings", "info", fixture_path("G.graph")])
        assert code == 0
        assert out["schema"] == "1"
        assert out["genus"] == 3
        assert out["is_2_connected"] is True
        assert out["edge_connectivity"] == 2
        assert out["spanning_trees"] == 16
        blocks = {frozenset(b) for b in out["series_classes"]}
        assert frozenset({"e3", "e6", "e7"}) in blocks

    def test_bowtie_has_a_cut_vertex_and_no_bridge(self, capsys, tmp_path):
        # Two triangles sharing vertex a: the two fundamental cycles share no
        # edge, so a is a cut vertex, while the max-flow still finds edge
        # connectivity 2.
        path = tmp_path / "bowtie.graph"
        path.write_text(
            "edge e1 a b\nedge e2 b c\nedge e3 c a\n"
            "edge e4 a d\nedge e5 d e\nedge e6 e a\nbase e1\n"
        )
        code, out = run(capsys, ["--no-timings", "info", str(path)])
        assert code == 0
        assert out["is_2_connected"] is False
        assert out["edge_connectivity"] == 2
        assert out["series_classes"] == [["e1", "e2", "e3"], ["e4", "e5", "e6"]]

    def test_missing_file_is_input_error(self, capsys):
        code, out = run(capsys, ["--no-timings", "info", "/nonexistent.graph"])
        assert code == 2
        assert "error" in out

    def test_timings_included_by_default(self, capsys):
        code, out = run(capsys, ["info", fixture_path("K.graph")])
        assert code == 0
        assert "timings" in out

    def test_no_timings_output_is_deterministic(self, capsys):
        _, out1 = run(capsys, ["--no-timings", "info", fixture_path("K.graph")])
        _, out2 = run(capsys, ["--no-timings", "info", fixture_path("K.graph")])
        assert out1 == out2

    def test_unexpected_exception_is_internal_error_json(self, capsys, monkeypatch):
        def broken(args):
            raise KeyError("v9")

        monkeypatch.setattr(cli, "cmd_info", broken)
        code = main(["--no-timings", "info", fixture_path("K.graph")])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"] == {
            "type": "InternalError",
            "message": "KeyError: 'v9'",
        }
        assert "Traceback" not in captured.err

    def test_usage_error_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info"])
        assert exc.value.code == 2


class TestCliRigidity:
    def test_rigid_pair_produces_lift(self, capsys):
        code, out = run(
            capsys, ["--no-timings", "rigidity", fixture_path("GH.morphism.json")]
        )
        assert code == 0
        assert out["is_rigid"] is True
        assert out["signs"] == {
            "e1": 1, "e2": 1, "e3": -1, "e4": -1, "e5": 1, "e6": -1, "e7": 1,
        }
        assert out["rigidity_divisor"]["representative"] == "div"
        assert out["lift"]["vertex_map"] == {
            "v1": "w2", "v2": "w1", "v3": "w5", "v4": "w4", "v5": "w3",
        }

    def test_non_rigid_pair_produces_witness(self, capsys):
        code, out = run(
            capsys, ["--no-timings", "rigidity", fixture_path("JK.morphism.json")]
        )
        assert code == 0
        assert out["is_rigid"] is False
        assert "witness" in out
        assert out["witness"]["theta_element"]["degree"] == 0

    def test_expect_rigid_fails_on_non_rigid(self, capsys):
        code, _ = run(
            capsys,
            [
                "--no-timings",
                "rigidity",
                fixture_path("JK.morphism.json"),
                "--expect-rigid",
            ],
        )
        assert code == 1

    def test_rigid_pair_without_a_lift_is_a_domain_error(self, capsys, tmp_path):
        g, h, emap = digon_cycle_pair()
        code = main(["--no-timings", "rigidity", write_morphism_files(tmp_path, g, h, emap)])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["type"] == "NoSeriesFixingLift" and "anchors" in error["message"]
        assert "Traceback" not in captured.err


def write_morphism_files(tmp_path, g, h, edge_map):
    """g and h as graph files next to a morphism file that names them."""
    for name, graph in (("source.graph", g), ("target.graph", h)):
        lines = [f"edge {e} {graph.o(e)} {graph.t(e)}\n" for e in graph.edge_ids]
        (tmp_path / name).write_text("".join(lines) + f"base {graph.base_edge}\n")
    path = tmp_path / "m.morphism.json"
    path.write_text(json.dumps({"source": "source.graph", "target": "target.graph", "edge_map": edge_map}))
    return str(path)


class TestCliWitness:
    JK_WITNESS = {
        "theta_element": {"degree": 0, "representative": "div v1:1 v2:-2 v3:1"},
        "image": {"degree": 0, "representative": "div w1:2 w2:-3 w4:1"},
    }

    def test_class_bound_leaves_the_jk_witness_alone(self, capsys):
        # The witness enumerates no Θ (the lemma in its docstring), so a
        # bound of one class does not stop it.
        for bound in ([], ["--max-classes", "1"]):
            argv = ["--no-timings", *bound, "rigidity", fixture_path("JK.morphism.json")]
            code, out = run(capsys, argv)
            assert code == 0
            assert out["witness"] == self.JK_WITNESS

    def test_64_vertex_witness_at_the_default_bound(self, capsys, tmp_path):
        m = two_sum_whitney_flip(64, 0)
        path = write_morphism_files(tmp_path, m.source, m.target, m.edge_dict)
        code, out = run(capsys, ["--no-timings", "rigidity", path])
        assert code == 0 and out["is_rigid"] is False
        s, image = nonrigidity_witness(m)
        assert out["witness"]["theta_element"]["representative"] == format_divisor(s.representative)
        assert out["witness"]["image"]["representative"] == format_divisor(image.representative)

    def test_cut_vertex_is_malformed_input(self, capsys, tmp_path):
        # Two triangles sharing vertex a: 2-edge-connected, not 2-connected.
        bowtie = build_graph(
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
             ("e4", "a", "d"), ("e5", "d", "e"), ("e6", "e", "a")],
            "e1",
        )
        path = write_morphism_files(tmp_path, bowtie, bowtie, {e: e for e in bowtie.edge_ids})
        code = main(["--no-timings", "rigidity", path])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ValidationError" and "not 2-connected" in error["message"]
        assert "Traceback" not in captured.err


class TestCliLiftMatroid:
    def test_liftable(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text(
            json.dumps({"edge_map": {f"e{i}": f"r{i}" for i in range(1, 8)}})
        )
        code, out = run(
            capsys,
            [
                "--no-timings",
                "lift-matroid",
                fixture_path("G.graph"),
                fixture_path("H.graph"),
                str(map_file),
            ],
        )
        assert code == 0
        assert out["liftable"] is True
        assert sorted(out["vertex_map"].values()) == ["w1", "w2", "w3", "w4", "w5"]

    def test_bare_map_accepted(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({f"e{i}": f"r{i}" for i in range(1, 8)}))
        code, out = run(
            capsys,
            [
                "--no-timings",
                "lift-matroid",
                fixture_path("G.graph"),
                fixture_path("H.graph"),
                str(map_file),
            ],
        )
        assert code == 0 and out["liftable"] is True

    def test_not_liftable_is_domain_error(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text(
            json.dumps({"edge_map": {f"e{i}": f"r{i}" for i in range(1, 7)}})
        )
        code, out = run(
            capsys,
            [
                "--no-timings",
                "lift-matroid",
                fixture_path("J.graph"),
                fixture_path("K.graph"),
                str(map_file),
            ],
        )
        assert code == 1
        assert out["liftable"] is False
        assert set(out["tried"]) == {"r1", "r4"}

    def test_cut_vertex_is_malformed_input(self, capsys, tmp_path):
        # Two triangles sharing vertex a, mapped to themselves: as `rigidity` says.
        bowtie = build_graph(
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
             ("e4", "a", "d"), ("e5", "d", "e"), ("e6", "e", "a")],
            "e1",
        )
        path = write_morphism_files(tmp_path, bowtie, bowtie, {e: e for e in bowtie.edge_ids})
        graphs = [str(tmp_path / "source.graph"), str(tmp_path / "target.graph")]
        code, out = run(capsys, ["--no-timings", "lift-matroid", *graphs, path])
        assert code == 2
        assert out["error"]["type"] == "ValidationError" and "not 2-connected" in out["error"]["message"]

    def test_non_cyclic_bijection_is_malformed_input_as_in_rigidity(self, capsys, tmp_path):
        edge_map = {f"e{i}": f"r{i}" for i in range(1, 8)}
        edge_map["e3"], edge_map["e4"] = "r4", "r3"
        path = tmp_path / "m.morphism.json"
        path.write_text(json.dumps(
            {"source": fixture_path("G.graph"), "target": fixture_path("H.graph"), "edge_map": edge_map}
        ))
        lift = ["lift-matroid", fixture_path("G.graph"), fixture_path("H.graph"), str(path)]
        errors = []
        for argv in (lift, ["rigidity", str(path)]):
            code, out = run(capsys, ["--no-timings", *argv])
            assert code == 2
            errors.append(out["error"])
        assert errors[0] == errors[1] and errors[0]["type"] == "ValidationError"

    def test_invalid_json_is_input_error(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text("{nope")
        code, _ = run(
            capsys,
            [
                "--no-timings",
                "lift-matroid",
                fixture_path("J.graph"),
                fixture_path("K.graph"),
                str(map_file),
            ],
        )
        assert code == 2


class TestCliDivisor:
    def test_reduce_worked_example(self, capsys):
        code, out = run(
            capsys,
            [
                "--no-timings",
                "divisor",
                fixture_path("K.graph"),
                "reduce",
                "w2:1 w3:3 w4:-4",
                "--q",
                "w4",
            ],
        )
        assert code == 0
        assert out["reduced"] == "div w1:1 w3:1 w4:-2"

    def test_effective(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "divisor", fixture_path("K.graph"), "effective", "w1:1"],
        )
        assert code == 0 and out["effective_class"] is True

    def test_classify(self, capsys):
        code, out = run(
            capsys,
            [
                "--no-timings",
                "divisor",
                fixture_path("K.graph"),
                "classify",
                "w3:1 w4:1",
            ],
        )
        assert code == 0 and out["classification"] == "Special"

    def test_theta_count(self, capsys):
        code, out = run(
            capsys, ["--no-timings", "divisor", fixture_path("K.graph"), "theta"]
        )
        assert code == 0
        assert out["count"] == 9
        assert len(out["theta"]) == 9

    def test_wrong_degree_is_domain_error(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "divisor", fixture_path("K.graph"), "classify", "w1:1"],
        )
        assert code == 1 and out["error"]["type"] == "WrongDegree"

    def test_reduce_at_a_missing_vertex_is_input_error(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "divisor", fixture_path("K.graph"), "reduce", "w1:1", "--q", "zz"],
        )
        assert code == 2
        assert out["error"] == {"type": "ValidationError", "message": "vertex 'zz' not in graph"}

    def test_bad_divisor_string_is_input_error(self, capsys):
        code, _ = run(
            capsys,
            ["--no-timings", "divisor", fixture_path("K.graph"), "reduce", "w1"],
        )
        assert code == 2

    def test_max_classes_env_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGIDLIFT_MAX_CLASSES", "3")
        code, out = run(
            capsys, ["--no-timings", "divisor", fixture_path("K.graph"), "theta"]
        )
        assert code == 1
        assert out["error"]["type"] == "EnumerationBoundExceeded"

    def test_class_bound_reports_limit_and_reached(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "--max-classes", "5", "divisor", fixture_path("K.graph"), "theta"],
        )
        assert code == 1
        assert out["error"] == {
            "type": "EnumerationBoundExceeded",
            "message": "more than 5 classes",
            "limit": 5,
            "reached": 6,
        }

    def test_theta_bound_is_the_size_of_pic0(self, capsys):
        # K has |Pic^0| = 12 and |Theta| = 9: the bound counts Pic^0.
        argv = ["--no-timings", "--max-classes", "11", "divisor", fixture_path("K.graph"), "theta"]
        code, out = run(capsys, argv)
        assert code == 1
        assert (out["error"]["limit"], out["error"]["reached"]) == (11, 12)
        argv[2] = "12"
        code, out = run(capsys, argv)
        assert code == 0 and out["count"] == 9

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGIDLIFT_MAX_CLASSES", "3")
        code, out = run(
            capsys,
            [
                "--no-timings",
                "--max-classes",
                "1000000",
                "divisor",
                fixture_path("K.graph"),
                "theta",
            ],
        )
        assert code == 0 and out["count"] == 9


class TestCliOrient:
    def test_chern(self, capsys):
        code, out = run(
            capsys,
            [
                "--no-timings",
                "orient",
                fixture_path("K.graph"),
                "chern",
                "r1:F r2:F r3:F r4:F r5:F r6:F",
            ],
        )
        assert code == 0
        assert out["chern_class"] == "div w3:1 w4:1"

    def test_liftdiv_success(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "orient", fixture_path("K.graph"), "liftdiv", "w1:2"],
        )
        assert code == 0
        assert "orientation" in out

    def test_liftdiv_with_unoriented_set(self, capsys):
        code, out = run(
            capsys,
            [
                "--no-timings",
                "orient",
                fixture_path("K.graph"),
                "liftdiv",
                "w1:-1",
                "--unoriented",
                "r2,r3,r5",
            ],
        )
        assert code == 0
        orient = parse_orientation(
            __import__("rigidlift.graphio", fromlist=["load_fixture"]).load_fixture(
                "K.graph"
            ),
            out["orientation"],
        )
        assert orient.unoriented_set == frozenset({"r2", "r3", "r5"})

    def test_liftdiv_certificate_is_domain_error(self, capsys):
        code, out = run(
            capsys,
            [
                "--no-timings",
                "orient",
                fixture_path("K.graph"),
                "liftdiv",
                "w1:-3 w3:1",
                "--unoriented",
                "r2,r3,r5,r6",
            ],
        )
        assert code == 1
        assert out["not_partially_orientable"] is True
        assert out["class_partially_orientable"] is False

    def test_certify_branches(self, capsys):
        code, out = run(
            capsys,
            ["--no-timings", "orient", fixture_path("K.graph"), "certify", "w3:1 w4:1"],
        )
        assert code == 0 and out["branch"] == "sourceless"
        code, out = run(
            capsys,
            [
                "--no-timings",
                "orient",
                fixture_path("K.graph"),
                "certify",
                "w1:-2 w2:1 w3:2 w4:1",
            ],
        )
        assert code == 0 and out["branch"] == "acyclic"

    def test_liftdiv_past_the_candidate_bound_is_domain_error(self, capsys, tmp_path, monkeypatch):
        # None of the 2^11 orientations of the edges off the unoriented set fits,
        # so the bound of 100 candidates refuses the search.
        g = cycle_plus_chords(8, 5, 1)
        graph = tmp_path / "chords.graph"
        lines = [f"edge {e} {g.o(e)} {g.t(e)}\n" for e in g.edge_ids]
        graph.write_text("".join(lines) + f"base {g.base_edge}\n")
        monkeypatch.setattr(rigidlift.orientation, "MAX_CANDIDATES", 100)
        argv = ["--no-timings", "orient", str(graph), "liftdiv", "y0:3", "--unoriented", "c0,c9"]
        code, out = run(capsys, argv)
        assert code == 1
        assert out["error"] == {
            "type": "EnumerationBoundExceeded",
            "message": "more than 100 candidates",
            "limit": 100,
            "reached": 101,
        }

    def test_liftdiv_past_the_default_candidate_bound_is_domain_error(self, capsys, tmp_path):
        # 2^17 orientations off the unoriented set: no fit (seed 1), and a
        # first fit at candidate 80,929 (seed 5).
        for seed in (1, 5):
            g, d, x = seventeen_free_edges(seed)
            graph = tmp_path / f"seventeen{seed}.graph"
            lines = [f"edge {e} {g.o(e)} {g.t(e)}\n" for e in g.edge_ids]
            graph.write_text("".join(lines) + f"base {g.base_edge}\n")
            argv = ["--no-timings", "orient", str(graph), "liftdiv", format_divisor(d), "--unoriented", ",".join(sorted(x))]
            code, out = run(capsys, argv)
            assert code == 1
            assert out["error"] == {
                "type": "EnumerationBoundExceeded",
                "message": "more than 65536 candidates",
                "limit": 65536,
                "reached": 65537,
            }

    def test_certify_on_long_cycle_needs_no_recursion(self, tmp_path):
        n = 1200
        graph = tmp_path / "cycle.graph"
        graph.write_text(
            "".join(f"edge e{i} v{i} v{(i + 1) % n}\n" for i in range(n)) + "base e0\n"
        )
        src = str(Path(rigidlift.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "rigidlift.cli", "--no-timings", "orient", str(graph), "certify", "div v5:-1"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["branch"] == "acyclic"


class TestCliSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run(capsys, ["--no-timings", "selftest"])
        assert code == 0
        assert out["ok"] is True
        assert all(out["checks"].values())


class TestReadmeExamples:
    def test_every_cli_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
        block = next(b for b in blocks if "FIX=" in b)
        fix = str(fixture_path("")).rstrip("/")
        lines = [ln for ln in block.splitlines() if ln.startswith("rigidlift ")]
        assert len(lines) >= 10
        for line in lines:
            argv = shlex.split(line.replace("$FIX", fix), comments=True)
            code = main(argv[1:])
            out = capsys.readouterr().out
            assert code in (0, 1), line
            assert isinstance(json.loads(out), dict), line


class TestCliMalformedInput:
    """Malformed input exits 2 with a JSON error, never a traceback."""

    @staticmethod
    def write_morphism(tmp_path, data):
        path = tmp_path / "m.morphism.json"
        path.write_text(json.dumps(data))
        return str(path)

    def morphism(self, tmp_path, edge_map):
        return self.write_morphism(
            tmp_path,
            {"source": fixture_path("G.graph"), "target": fixture_path("H.graph"), "edge_map": edge_map},
        )

    def test_non_integer_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGIDLIFT_MAX_CLASSES", "abc")
        code, out = run(capsys, ["--no-timings", "divisor", fixture_path("K.graph"), "theta"])
        assert code == 2 and out["error"]["type"] == "ParseError"

    def test_negative_flag_bound(self, capsys):
        code, out = run(
            capsys, ["--no-timings", "--max-classes", "-5", "divisor", fixture_path("K.graph"), "theta"]
        )
        assert code == 2 and "error" in out

    def test_negative_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGIDLIFT_MAX_CLASSES", "-5")
        code, out = run(capsys, ["--no-timings", "divisor", fixture_path("K.graph"), "theta"])
        assert code == 2 and "error" in out

    def test_morphism_file_not_an_object(self, capsys, tmp_path):
        code, out = run(capsys, ["--no-timings", "rigidity", self.write_morphism(tmp_path, 5)])
        assert code == 2 and out["error"]["type"] == "ParseError"

    def test_edge_map_not_an_object(self, capsys, tmp_path):
        code, out = run(capsys, ["--no-timings", "rigidity", self.morphism(tmp_path, 5)])
        assert code == 2 and out["error"]["type"] == "ParseError"

    def test_edge_map_value_not_a_string(self, capsys, tmp_path):
        code, out = run(capsys, ["--no-timings", "rigidity", self.morphism(tmp_path, {"e1": ["r1"]})])
        assert code == 2 and out["error"]["type"] == "ParseError"

    def test_lift_matroid_map_value_not_a_string(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({"edge_map": {"e1": ["r1"]}}))
        code, out = run(
            capsys,
            ["--no-timings", "lift-matroid", fixture_path("G.graph"), fixture_path("H.graph"), str(map_file)],
        )
        assert code == 2 and out["error"]["type"] == "ParseError"

    def test_lift_matroid_incomplete_map(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({"edge_map": {f"e{i}": f"r{i}" for i in range(1, 7)}}))
        code, out = run(
            capsys,
            ["--no-timings", "lift-matroid", fixture_path("G.graph"), fixture_path("H.graph"), str(map_file)],
        )
        assert code == 2 and out["error"]["type"] == "ValidationError"

    def test_rigidity_incomplete_map(self, capsys, tmp_path):
        edge_map = {f"e{i}": f"r{i}" for i in range(1, 7)}
        code, out = run(capsys, ["--no-timings", "rigidity", self.morphism(tmp_path, edge_map)])
        assert code == 2 and out["error"]["type"] == "ValidationError"

    def bad_bytes(self, capsys, argv):
        """A file that is not valid UTF-8 is malformed input: exit 2, JSON,
        a ParseError that names the file (the last argument)."""
        code = main(["--no-timings"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(os.path.basename(argv[-1]) + ":")
        assert "Traceback" not in captured.err

    def test_info_on_a_graph_that_is_not_utf8(self, capsys, tmp_path):
        graph = tmp_path / "bad.graph"
        graph.write_bytes(b"\xff\xfe")
        self.bad_bytes(capsys, ["info", str(graph)])

    def test_rigidity_on_a_morphism_file_that_is_not_utf8(self, capsys, tmp_path):
        morphism = tmp_path / "bad.morphism.json"
        morphism.write_bytes(b'{"source": "\xff"}')
        self.bad_bytes(capsys, ["rigidity", str(morphism)])

    def test_lift_matroid_on_a_map_file_that_is_not_utf8(self, capsys, tmp_path):
        map_file = tmp_path / "map.json"
        map_file.write_bytes(b"\xfe\xff")
        graphs = [fixture_path("G.graph"), fixture_path("H.graph")]
        self.bad_bytes(capsys, ["lift-matroid", *graphs, str(map_file)])

    def edge_map_faults(self, capsys, argv_for):
        """An edge map that is not an object of strings, and one that is not
        a bijection, exit 2 with an error that starts with the file's name."""
        faults = (
            ({"e1": ["r1"]}, "ParseError", "edge_map must be a JSON object of edge id strings"),
            ({f"e{i}": f"r{i}" for i in range(1, 7)}, "ValidationError", "edge_map is not a bijection"),
        )
        for edge_map, kind, message in faults:
            argv = argv_for(edge_map)
            code = main(["--no-timings"] + argv)
            captured = capsys.readouterr()
            assert code == 2
            error = json.loads(captured.out)["error"]
            assert error["type"] == kind
            assert error["message"].startswith(f"{os.path.basename(argv[-1])}: {message}")
            assert "Traceback" not in captured.err

    def test_morphism_edge_map_faults_name_the_file(self, capsys, tmp_path):
        self.edge_map_faults(capsys, lambda edge_map: ["rigidity", self.morphism(tmp_path, edge_map)])

    def test_map_file_faults_name_the_file(self, capsys, tmp_path):
        map_file = tmp_path / "m.json"
        graphs = [fixture_path("G.graph"), fixture_path("H.graph")]

        def argv_for(edge_map):
            map_file.write_text(json.dumps({"edge_map": edge_map}))
            return ["lift-matroid", *graphs, str(map_file)]

        self.edge_map_faults(capsys, argv_for)
