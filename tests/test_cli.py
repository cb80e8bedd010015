import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherejoin import (
    InternalInvariantError,
    SimplicialComplex,
    SphereJoinError,
    boundary_of_simplex,
    dual_boundary_complex,
    gen_polygon,
    gen_product_of_simplices,
    incidence_from_hv,
    simplex_boundary_on,
)
from spherejoin import complexes
from spherejoin.cli import main
from spherejoin.geometry import polytope_to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecognize:
    def test_product_positive(self, capsys):
        code, out, _ = run(capsys, "recognize", "--gen", "product:2,1", "--assert")
        assert code == 0
        data = json.loads(out)
        assert data["agreement"] is True
        assert data["decomposition"]["dims"] == [1, 2]

    def test_polygon_negative(self, capsys):
        code, out, _ = run(capsys, "recognize", "--gen", "polygon:5", "--assert")
        assert code == 1
        data = json.loads(out)
        witnesses = [c["witness"] for c in data["criteria"]]
        assert all(c["verdict"] is False for c in data["criteria"])
        assert any(w for w in witnesses)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "recognize", "--in", "does-not-exist.json")
        assert code == 2
        assert "error:" in err

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "recognize", "--gen", "product:2,1", "--cap", "3")
        assert code == 2
        assert "cap" in err

    def test_without_assert_exit_zero(self, capsys):
        code, _, _ = run(capsys, "recognize", "--gen", "polygon:5")
        assert code == 0

    def test_complex_file_input(self, capsys, tmp_path, pentagon):
        path = tmp_path / "pentagon.json"
        path.write_text(pentagon.to_json())
        code, out, _ = run(capsys, "recognize", "--in", str(path), "--assert")
        assert code == 1

    def test_field_both(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--gen", "product:1,1", "--field", "both"
        )
        names = [c["criterion"] for c in json.loads(out)["criteria"]]
        assert "HochsterGF2" in names and "HochsterQ" in names

    def test_non_integer_m_rejected(self, capsys, tmp_path):
        path = tmp_path / "bool_m.json"
        path.write_text('{"m": true, "maximal_faces": [[0]]}')
        code, out, err = run(capsys, "recognize", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and '"m"' in err

    def test_non_integer_incidence_counts_rejected(self, capsys, tmp_path):
        prefix = str(tmp_path / "sq")
        run(capsys, "gen", "product:1,1", "--json", prefix)
        path = tmp_path / "sq.incidence.json"
        data = json.loads(path.read_text())
        data["n"], data["facets"] = True, 4.0
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "recognize", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and '"n"' in err

    def test_huge_facet_count_rejected_at_once(self, capsys, tmp_path):
        # the coverage check compares sizes and extremes, never a set of
        # every declared facet id, which would not fit in memory here
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "facets": 10**9, "vertex_facets": [[0], [1]]}))
        code, out, err = run(capsys, "recognize", "--in", str(path), "--assert")
        assert code == 2
        assert out == ""
        assert err == "error: some facet contains no vertex\n"

    @pytest.mark.parametrize(
        "text",
        [
            '"maximal_faces"',
            "5",
            '{"m": 2, "maximal_faces": 5}',
            '{"n": 2, "facets": 3, "vertex_facets": 4}',
        ],
    )
    def test_malformed_json_shape_rejected(self, capsys, tmp_path, text):
        # a non-object, or a wrong container under a known key, is bad input
        # (exit 2), never a traceback that --assert would read as exit 1
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "recognize", "--in", str(path), "--assert")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_disagreement_exit_code(self, capsys, tmp_path):
        # a full simplex is not dual to any simple polytope: the rank count
        # comes out right (total 1 = 2^0) while the partition test fails
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"m": 3, "maximal_faces": [[0, 1, 2]]}))
        code, out, _ = run(capsys, "recognize", "--in", str(path), "--assert")
        assert code == 3
        data = json.loads(out)
        assert data["agreement"] is False

    def test_internal_invariant_failure_exit_code(self, capsys, monkeypatch):
        # a wrong rebuild makes double()'s own non-face check fail; that is a
        # library defect and must not read as exit 1 ("agreed negative")
        def simplex_on(vertices, non_faces):
            return SimplicialComplex([vertices], vertices=vertices)

        monkeypatch.setattr(complexes, "reconstruct_from_non_faces", simplex_on)
        code, out, err = run(capsys, "recognize", "--gen", "product:1,1", "--assert")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert not issubclass(InternalInvariantError, SphereJoinError)


class TestMalformedEntries:
    # a wrong entry type inside an array is bad input (exit 2, one stderr
    # line), never a traceback that --assert would read as exit 1

    @pytest.mark.parametrize(
        "argv",
        [["recognize", "--in", "{}", "--assert"], ["double", "--in", "{}"], ["gen", "double:{}"]],
    )
    def test_non_string_labels(self, capsys, tmp_path, argv):
        path = tmp_path / "labels.json"
        path.write_text('{"m": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]], "labels": [1, 2, 3]}')
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (2, "")
        assert err == 'error: "labels" entries must be strings, got integer\n'

    @pytest.mark.parametrize("facet, kind", [("true", "boolean"), ("1.0", "number"), ('"1"', "string")])
    @pytest.mark.parametrize("argv", [["recognize", "--in", "{}", "--assert"], ["gen", "truncate:{},0"]])
    def test_non_integer_facet_ids(self, capsys, tmp_path, argv, facet, kind):
        # the square with facet 1 written as something other than an integer
        path = tmp_path / "square.incidence.json"
        path.write_text(
            f'{{"n": 2, "facets": 4, "vertex_facets": [[0, {facet}], [{facet}, 2], [2, 3], [3, 0]]}}'
        )
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (2, "")
        assert err == f'error: "vertex_facets" entries must be integers, got {kind}\n'

    @pytest.mark.parametrize(
        "normal, offset, vertex, key",
        [
            ('"1/0"', "0", "0", "normal"),
            ("1", '"-1/0"', "0", "offset"),
            ("1", "0", '"0/0"', "vertices"),
        ],
    )
    def test_zero_denominator_coordinates(self, capsys, tmp_path, normal, offset, vertex, key):
        # the segment 0 <= x <= 1 with one coordinate over a zero denominator
        path = tmp_path / "segment.json"
        path.write_text(
            f'{{"dim": 1, "inequalities": [{{"normal": [{normal}], "offset": {offset}}},'
            f' {{"normal": [-1], "offset": -1}}], "vertices": [[{vertex}], [1]]}}'
        )
        code, out, err = run(capsys, "recognize", "--in", str(path), "--assert")
        assert (code, out) == (2, "")
        assert err.startswith(f'error: "{key}" entry') and err.count("\n") == 1


def valid_documents():
    """Complex, incidence and polytope JSON of a few small polytopes, and a
    labelled complex."""
    docs = [{"m": 3, "maximal_faces": [[0, 1], [1, 2], [0, 2]], "labels": ["a", "b", "c"]}]
    polytopes = (gen_product_of_simplices(1, 1), gen_polygon(5), gen_product_of_simplices(2, 1))
    for hrep, vrep in polytopes:
        inc = incidence_from_hv(hrep, vrep)
        docs += [
            polytope_to_json_dict(hrep, vrep),
            inc.to_json_dict(),
            dual_boundary_complex(inc).to_json_dict(),
        ]
    return docs


DOCUMENTS = valid_documents()
KEYS = (
    "m", "maximal_faces", "labels", "n", "facets", "vertex_facets",
    "dim", "inequalities", "normal", "offset", "vertices",
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x"]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(KEYS), st.text(max_size=3)), children, max_size=4
        ),
    ),
    max_leaves=12,
)


def paths(value, prefix=()):
    """Every position inside a JSON value, as the keys and indices leading to it."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from paths(child, (*prefix, key))


@st.composite
def mutated_documents(draw):
    """A valid document with one field, array entry or nested value deleted
    or replaced by an arbitrary JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    *head, last = draw(st.sampled_from(list(paths(doc))[1:]))
    parent = doc
    for key in head:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JSON_VALUES)
    return doc


class TestArbitraryJson:
    # whatever JSON reaches recognize is a verdict (exit 0, 1 or 3) or bad
    # input (exit 2, one stderr line), never a traceback or an exit 4

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(JSON_VALUES, mutated_documents()))
    def test_recognize_rejects_with_a_typed_error(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "arbitrary.json"
        path.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["recognize", "--in", str(path), "--assert", "--cap", "12"])
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        else:
            assert code in (0, 1, 3), err.getvalue()


class TestHrk:
    def test_pentagon_table_value(self, capsys):
        code, out, _ = run(capsys, "hrk", "--gen", "polygon:5", "--field", "both")
        assert code == 0
        data = json.loads(out)
        assert data["fields"]["gf2"]["total"] == 12
        assert data["fields"]["q"]["total"] == 12
        assert data["fields"]["gf2"]["matches"] is False

    def test_cube(self, capsys):
        code, out, _ = run(capsys, "hrk", "--gen", "product:1,1,1")
        data = json.loads(out)
        assert data["fields"]["gf2"]["total"] == 8
        assert data["fields"]["gf2"]["matches"] is True


class TestBetti:
    def test_square_bigraded_keys(self, capsys):
        code, out, _ = run(capsys, "betti", "--gen", "product:1,1")
        data = json.loads(out)
        table = data["fields"]["gf2"]["bigraded"]
        assert table == {"(0,0)": 1, "(-1,4)": 2, "(-2,8)": 1}
        assert data["fields"]["gf2"]["total"] == 4
        assert data["fields"]["gf2"]["reduced"] == {"-1": 0, "0": 0, "1": 1}


class TestDouble:
    def test_square_double(self, capsys, tmp_path, square):
        path = tmp_path / "square.json"
        path.write_text(square.to_json())
        code, out, _ = run(capsys, "double", "--in", str(path))
        assert code == 0
        doubled = SimplicialComplex.from_json_dict(json.loads(out))
        assert doubled.vertex_count == 8 and doubled.dim == 5


class TestGen:
    def test_cube_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "cube")
        code, out, _ = run(capsys, "gen", "product:1,1,1", "--json", prefix)
        assert code == 0
        complex_data = json.loads((tmp_path / "cube.complex.json").read_text())
        incidence_data = json.loads((tmp_path / "cube.incidence.json").read_text())
        polytope_data = json.loads((tmp_path / "cube.polytope.json").read_text())
        assert complex_data["m"] == 6
        assert incidence_data["facets"] == 6 and incidence_data["n"] == 3
        assert len(polytope_data["vertices"]) == 8

    def test_deterministic(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run(capsys, "gen", "prism:5", "--json", a)
        run(capsys, "gen", "prism:5", "--json", b)
        for kind in ("complex", "incidence", "polytope"):
            assert (tmp_path / f"a.{kind}.json").read_bytes() == (
                tmp_path / f"b.{kind}.json"
            ).read_bytes()

    def test_double_spec(self, capsys, tmp_path, square):
        path = tmp_path / "square.json"
        path.write_text(square.to_json())
        code, out, _ = run(capsys, "gen", f"double:{path}")
        assert code == 0
        data = json.loads(out)
        assert data["complex"]["m"] == 8

    def test_join_spec(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(boundary_of_simplex(2).to_json())
        b.write_text(simplex_boundary_on([0, 1]).to_json())
        code, out, _ = run(capsys, "gen", f"join:{a},{b}")
        assert code == 0
        data = json.loads(out)
        assert data["complex"]["m"] == 5

    def test_truncate_spec(self, capsys, tmp_path):
        prefix = str(tmp_path / "cube")
        run(capsys, "gen", "product:1,1,1", "--json", prefix)
        code, out, _ = run(capsys, "gen", f"truncate:{prefix}.incidence.json,0")
        assert code == 0
        data = json.loads(out)
        assert data["incidence"]["facets"] == 7
        assert data["complex"]["m"] == 7

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "gen", "banana:7")
        assert code == 2


class TestDihedralCommand:
    def test_polygon5(self, capsys):
        code, out, _ = run(capsys, "dihedral", "--gen", "polygon:5")
        data = json.loads(out)
        assert data["verdict"] is False
        assert data["witness"]["kind"] == "obtuse_pair"

    def test_needs_geometry(self, capsys, tmp_path, square):
        path = tmp_path / "square.json"
        path.write_text(square.to_json())
        code, _, err = run(capsys, "dihedral", "--in", str(path))
        assert code == 2


class TestEuler:
    def test_pentagon(self, capsys):
        code, out, _ = run(capsys, "euler", "--gen", "polygon:5")
        assert json.loads(out)["euler_characteristic"] == -8

    def test_incidence_file(self, capsys, tmp_path):
        prefix = str(tmp_path / "sq")
        run(capsys, "gen", "product:1,1", "--json", prefix)
        code, out, _ = run(capsys, "euler", "--in", f"{prefix}.incidence.json")
        assert json.loads(out)["euler_characteristic"] == 0


class TestCrosscheck:
    def test_reduced_cap_skips_and_passes(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--cap", "12", "--json", "/dev/null")
        assert code == 0
        assert "skipped" in out
        assert "rows consistent" in out

    def test_json_rows(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        code, _, _ = run(capsys, "crosscheck", "--cap", "10", "--quiet", "--json", str(path))
        assert code == 0
        rows = json.loads(path.read_text())["rows"]
        by_name = {r["name"]: r for r in rows}
        assert by_name["polygon:5"]["hrk"] == 12
        assert by_name["truncated:cube"]["status"] == "skipped"
        # entries needing a doubled sweep past the cap carry a marker
        assert by_name["prism:5"]["double_identity"] == "skipped"
        assert all(r["ok"] for r in rows)
