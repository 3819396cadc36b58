import math

import numpy as np
import pytest

from surfvort import (
    DegenerateTriangleError,
    MeshFormatError,
    TriangleMesh,
    load_obj,
    save_obj,
    validate_closed_genus0,
)
from surfvort.mesh import face_areas, face_normals
from surfvort.scenario import materialize_preset, presets
from surfvort.shapes import bumpy_sphere, icosahedron, icosphere

from helpers import edge_census, reference_load_obj, torus_mesh

TETRA_OBJ = """\
# tetrahedron
v 1.0 1.0 1.0
v -1.0 -1.0 1.0
v -1.0 1.0 -1.0
v 1.0 -1.0 -1.0
f 1 3 2
f 1 2 4
f 1 4 3
f 2 3 4
"""


def _write(tmp_path, text, name="mesh.obj"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadObj:
    def test_tetrahedron_counts(self, tmp_path):
        mesh = load_obj(_write(tmp_path, TETRA_OBJ))
        assert mesh.vertex_count == 4
        assert mesh.face_count == 4

    @pytest.mark.parametrize("bad_index", [0, 5])
    def test_out_of_range_face_index(self, tmp_path, bad_index):
        text = TETRA_OBJ.replace("f 2 3 4", f"f 2 3 {bad_index}")
        with pytest.raises(MeshFormatError):
            load_obj(_write(tmp_path, text))

    def test_quad_fan_triangulation(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        mesh = load_obj(_write(tmp_path, text))
        assert mesh.face_count == 2
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])

    def test_slash_indices_and_ignored_records(self, tmp_path):
        text = "vn 0 0 1\nvt 0 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n"
        mesh = load_obj(_write(tmp_path, text))
        assert mesh.face_count == 1

    def test_malformed_vertex(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_obj(_write(tmp_path, "v 0 zero 0\nf 1 1 1\n"))

    def test_empty_mesh(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_obj(_write(tmp_path, "# nothing\n"))

    @pytest.mark.parametrize("text, lineno, message", [
        ("v 0 0 0\nv 1 0\n", 2, "vertex record needs 3 coordinates"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", 4, "face record needs >= 3 indices"),
        ("v 0 0 0\n# note\nv 1 0 1e\n", 3, "bad vertex coordinate"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 three\n", 4, "bad face index"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 x/2 3\n", 4, "bad face index"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 0 3\n", 5, "face index 0 out of range (1..3)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -4\n", 4, "face index -4 out of range (1..3)"),
        # a face may use only the vertices defined above it
        ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", 3, "face index 3 out of range (1..2)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 99999999999999999999\n", 5,
         "face index 99999999999999999999 out of range (1..3)"),
        ("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n", 2, "non-finite vertex coordinate"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 2\n", 5, "face repeats a vertex index"),
        # a polygon whose fan repeats a vertex names its own line
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4 1\nf 1 2 3\n", 5, "face repeats a vertex index"),
    ])
    def test_fault_names_its_line(self, tmp_path, text, lineno, message):
        path = _write(tmp_path, text)
        with pytest.raises(MeshFormatError) as info:
            load_obj(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("text, lineno, message", [
        # an out-of-range face above a record that fails to parse
        ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nv 0 0\n", 3, "face index 3 out of range (1..2)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nf 1 2 x\n", 4, "face index 4 out of range (1..3)"),
        # a record that fails to parse above an out-of-range face
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\nf 1 2 4\n", 4, "face record needs >= 3 indices"),
        # two out-of-range faces, and two out-of-range indices of one face
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 3 2 5\nf 0 1 2\n", 4, "face index 5 out of range (1..3)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 7 4\n", 4, "face index 7 out of range (1..3)"),
        # a non-finite vertex above an out-of-range face, and the reverse
        ("v 0 0 0\nv 1 inf 0\nv 0 1 0\nf 1 2 4\n", 2, "non-finite vertex coordinate"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 1 -inf 0\nf 1 2 3\n", 4, "face index 4 out of range (1..3)"),
        # a repeating face above a non-finite vertex, and one above a record that fails to parse
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 3\nv nan 0 0\n", 4, "face repeats a vertex index"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 3 2 3\nv 1 x 0\n", 4, "face repeats a vertex index"),
    ])
    def test_first_of_two_faults_is_reported(self, tmp_path, text, lineno, message):
        path = _write(tmp_path, text)
        with pytest.raises(MeshFormatError) as info:
            load_obj(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"

    def test_mixed_faces_fan_triangulate_in_file_order(self, tmp_path):
        text = "".join(f"v {k} {k * k} 0\n" for k in range(8)) + (
            "f 1 2 3\nf 2 3 4 5\nf 4 5 6 7 8\nf 8 1 2\n")
        mesh = load_obj(_write(tmp_path, text))
        np.testing.assert_array_equal(mesh.triangles, [
            [0, 1, 2],
            [1, 2, 3], [1, 3, 4],
            [3, 4, 5], [3, 5, 6], [3, 6, 7],
            [7, 0, 1],
        ])

    def test_index_forms_line_endings_and_vertex_colours(self, tmp_path):
        lines = ["v 0 0 0 1 0 0", "v 1 0 0 0.5 0.5 0.5", "vt 0 0", "vn 0 0 1", "v 0 1 0",
                 "v 1 1 0 0 0 1", "f 1/1/1 2/1/1 3/1/1", "f 2//1 4//1 3//1", "f 1/1 2 4/1"]
        path = tmp_path / "mesh.obj"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        mesh = load_obj(path)
        np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2], [0, 1, 3]])

    def test_matches_token_by_token_parse_on_preset_and_blob_meshes(self, tmp_path):
        for name in presets():
            materialize_preset(name, str(tmp_path))
        save_obj(bumpy_sphere(5), tmp_path / "blob.obj")
        paths = sorted(tmp_path.glob("*.obj"))
        assert len(paths) == 2
        for path in paths:
            mesh, reference = load_obj(path), reference_load_obj(path)
            assert np.array_equal(mesh.vertices, reference.vertices)
            assert np.array_equal(mesh.triangles, reference.triangles)

    def test_roundtrip_is_idempotent(self, tmp_path):
        mesh = icosphere(2)
        p1 = tmp_path / "a.obj"
        p2 = tmp_path / "b.obj"
        save_obj(mesh, p1)
        again = load_obj(p1)
        # repr round-trip formatting keeps positions bit-identical
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.triangles, mesh.triangles)
        save_obj(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidate:
    def test_tetrahedron(self, tmp_path):
        report = validate_closed_genus0(load_obj(_write(tmp_path, TETRA_OBJ)))
        assert report.vertex_count - report.edge_count + report.face_count == 2
        assert report.euler_characteristic == 2
        assert report.boundary_edge_count == 0
        assert report.is_oriented
        assert report.is_closed_genus0

    def test_single_triangle_boundary(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        report = validate_closed_genus0(mesh)
        assert report.boundary_edge_count == 3
        assert not report.is_closed_genus0

    def test_torus_rejected(self):
        report = validate_closed_genus0(torus_mesh())
        assert report.euler_characteristic == 0
        assert report.boundary_edge_count == 0
        assert not report.is_closed_genus0

    def test_misoriented_flagged(self):
        # one flipped face of the tetrahedron
        mesh = TriangleMesh(
            [[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]],
            [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 3, 2]],
        )
        report = validate_closed_genus0(mesh)
        assert not report.is_oriented

    @pytest.mark.parametrize(
        "builder", [icosahedron, lambda: icosphere(1), lambda: torus_mesh(6, 4)]
    )
    def test_agrees_with_edge_census(self, builder):
        mesh = builder()
        assert mesh.face_count <= 100
        census = edge_census(mesh)
        report = validate_closed_genus0(mesh)
        assert report.edge_count == census["edges"]
        assert report.boundary_edge_count == census["boundary"]
        assert report.is_oriented == census["oriented"]


class TestGeometry:
    def test_right_triangle(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        assert face_areas(mesh)[0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(face_normals(mesh)[0], [0, 0, 1], atol=1e-15)

    def test_icosphere_area_converges_to_sphere(self):
        # refine until the polyhedral area is within 1% of 4 pi
        target = 4.0 * math.pi
        for sub in range(2, 6):
            err = abs(face_areas(icosphere(sub)).sum() - target) / target
            if err < 0.01:
                break
        else:
            pytest.fail("icosphere area never reached 1% of 4 pi")
        assert sub <= 4

    def test_degenerate_normal_raises(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 1, 3]])
        with pytest.raises(DegenerateTriangleError):
            face_normals(TriangleMesh(mesh.vertices, mesh.triangles[:1]))  # triangle 0 alone
        with pytest.raises(DegenerateTriangleError):
            face_normals(mesh)

    def test_closed_mesh_area_normals_cancel(self):
        for mesh in (icosphere(2), torus_mesh()):
            areas = face_areas(mesh)
            normals = face_normals(mesh)
            resultant = (areas[:, None] * normals).sum(axis=0)
            assert np.linalg.norm(resultant) < 1e-9 * areas.sum()


class TestConstruction:
    def test_index_out_of_range(self):
        with pytest.raises(MeshFormatError):
            TriangleMesh([[0, 0, 0]], [[0, 0, 1]])

    def test_repeated_index(self):
        with pytest.raises(MeshFormatError):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])

    def test_immutable(self):
        mesh = icosphere(1)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 9.0
