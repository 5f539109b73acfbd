"""End-to-end runs over a genuine three-index instance.

The two-patch circle fixture only has degenerate triples; covering the
pseudocircle by three arcs produces a datum with all-distinct index triples,
so the full triple-transition machinery (cocycle, projection squares,
derivation) runs through non-trivial slots.
"""

import ast
import dataclasses
import importlib
import inspect
import itertools
import pkgutil
from pathlib import Path

import pytest

import topoglue
from topoglue.cover import Covering, check_covering, functor_of_covering
from topoglue.fintop import find_homeomorphism, is_homeomorphism, subspace
from topoglue.fixtures import circle4, disc2, gd_circ, pt, sierp, torus_meta
from topoglue.gdata import GluingFunctor, Report, functor_of, validate
from topoglue.glidx import normalize, verify_relations
from topoglue.glue import (
    CONE_MODES,
    build_relation,
    check_cone,
    check_equivalence,
    check_glued_properties,
    check_otop,
    glue,
    verify_universal,
)
from topoglue.refine import check_refinement, compose_gdf, identity_refinement


def three_arc_covering():
    base = circle4()
    u1, i1 = subspace(base, {"l", "ma", "r"})
    u2, i2 = subspace(base, {"l", "mb", "r"})
    u3, i3 = subspace(base, {"l", "r"})
    return Covering(base, [(u1, i1), (u2, i2), (u3, i3)], "open")


def three_arc_data():
    return functor_of_covering(three_arc_covering())


class TestThreeArcCovering:
    def test_reconstructs_base(self):
        res = three_arc_data()
        assert res.report.passed, str(res.report)
        assert is_homeomorphism(res.iso)
        assert find_homeomorphism(res.glued.space, circle4()) is not None

    def test_has_nondegenerate_triples(self):
        res = three_arc_data()
        gd = res.data
        distinct = [
            key for key in gd.triple_transition
            if len(set(key)) == 3 and gd.triple_transition[key].dom.points
        ]
        assert distinct, "expected populated all-distinct triple transitions"
        assert validate(gd).passed

    def test_triple_spaces_are_the_pairwise_meets(self):
        res = three_arc_data()
        gd = res.data
        # every populated triple space projects onto points over the base's
        # two shared endpoints
        t = normalize(("0", "1", "2"))
        sp = gd.triple_space[t]
        assert len(sp.points) == 2

    def test_glued_properties_and_cone_modes(self):
        res = three_arc_data()
        gd = res.data
        glued = res.glued
        assert check_glued_properties(gd, glued).passed
        for mode in CONE_MODES:
            assert check_cone(gd, glued, mode)

    def test_universal_property_within_budget(self):
        res = three_arc_data()
        rep = verify_universal(res.data, res.glued, apexes=[pt(), sierp(), disc2()])
        assert rep.passed, str(rep)
        assert rep.cones_checked > 0

    def test_open_map_strengthening(self):
        res = three_arc_data()
        rep = check_otop(res.data, res.glued)
        assert rep.applicable and rep.passed, str(rep)

    def test_final_topology(self):
        from topoglue.fintop import is_open
        from topoglue.glidx import single

        res = three_arc_data()
        gd, glued = res.data, res.glued
        points = sorted(glued.space.points)
        for k in range(len(points) + 1):
            for sub in itertools.combinations(points, k):
                expect = all(
                    is_open(
                        gd.patch[i],
                        {x for x in gd.patch[i].points
                         if glued.leg(single(i))(x) in sub},
                    )
                    for i in gd.index
                )
                assert is_open(glued.space, sub) == expect


class TestOneReportType:
    """Every public check returns a ``gdata.Report`` of named rows."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda gd, glued: validate(gd),
            lambda gd, glued: check_equivalence(build_relation(gd), gd),
            lambda gd, glued: verify_relations(gd.index),
            lambda gd, glued: check_glued_properties(gd, glued),
            lambda gd, glued: verify_universal(gd, glued),
            lambda gd, glued: check_otop(gd, glued),
            lambda gd, glued: check_refinement(identity_refinement(functor_of(gd))),
            lambda gd, glued: check_covering(three_arc_covering()),
            lambda gd, glued: compose_gdf(torus_meta()[0])[1],
            lambda gd, glued: functor_of_covering(three_arc_covering()).report,
        ],
        ids=[
            "validate", "check_equivalence", "verify_relations", "check_glued_properties",
            "verify_universal", "check_otop", "check_refinement", "check_covering",
            "compose_gdf", "functor_of_covering",
        ],
    )
    def test_check_returns_a_report(self, check):
        gd = gd_circ()
        rep = check(gd, glue(gd))
        assert isinstance(rep, Report)
        assert rep.entries and rep.passed

    def test_only_report_defines_passed(self):
        owners = {
            f"{mod.__name__}.{cls.__qualname__}"
            for info in pkgutil.iter_modules(topoglue.__path__)
            for mod in [importlib.import_module(f"topoglue.{info.name}")]
            for _, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__ == mod.__name__ and "passed" in vars(cls)
        }
        assert owners == {"topoglue.gdata.Report"}

    def test_every_report_class_is_a_report(self):
        """A ``*Report`` class is a ``gdata.Report``; ``cli.RunReport``, the CLI envelope, aside."""
        strays = {
            f"{mod.__name__}.{cls.__qualname__}"
            for info in pkgutil.iter_modules(topoglue.__path__)
            for mod in [importlib.import_module(f"topoglue.{info.name}")]
            for _, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__ == mod.__name__
            and cls.__name__.endswith("Report")
            and not issubclass(cls, Report)
        }
        assert strays == {"topoglue.cli.RunReport"}


class TestFintopReadsMaps:
    """Point lookups and map-property witnesses are decided in ``fintop`` alone."""

    def test_only_fintop_catches_lookups_and_formats_witnesses(self):
        sources = {
            info.name: inspect.getsource(importlib.import_module(f"topoglue.{info.name}"))
            for info in pkgutil.iter_modules(topoglue.__path__)
        }
        assert [name for name, src in sources.items() if "except KeyError" in src] == ["fintop"]
        # a SpaceMap is total and typed when built: only SpaceMap.__call__ meets a point outside it
        assert sources["fintop"].count("except KeyError") == 1
        assert not {"_table_gap", "paired_values", "make_map"} & set(vars(importlib.import_module("topoglue.fintop")))
        assert [name for name, src in sources.items() if "str(analyze_map(" in src] == ["fintop"]
        assert sources["fintop"].count("str(analyze_map(") == 1


class TestOneMapReader:
    """The map of a generator edge is read in one place: ``GluingData.map``."""

    def test_only_gdata_names_the_generator_reader(self):
        names = [
            info.name
            for info in pkgutil.iter_modules(topoglue.__path__)
            if "_generator_image" in inspect.getsource(importlib.import_module(f"topoglue.{info.name}"))
        ]
        assert names == ["gdata"]

    def test_the_functor_is_a_view_of_its_datum(self):
        assert [f.name for f in dataclasses.fields(GluingFunctor)] == ["data"]
        gdata = importlib.import_module("topoglue.gdata")
        refine = importlib.import_module("topoglue.refine")
        assert not {"functor_tables", "_coords"} & set(vars(gdata))
        assert "_reindexed_map" not in vars(refine)


class TestOneIndexCategoryType:
    """A datum's nerve is a ``glidx.Category``, which keeps objects and edges alone."""

    def test_no_second_nerve_type_and_no_stored_faces(self):
        gdata = importlib.import_module("topoglue.gdata")
        glidx = importlib.import_module("topoglue.glidx")
        assert not {"Nerve", "_triple_keys"} & set(vars(gdata))
        assert "faces" not in vars(glidx)
        assert [f.name for f in dataclasses.fields(glidx.Category)] == ["objects", "edges"]
        assert isinstance(gd_circ().nerve, glidx.Category)


class TestSparsePairTables:
    """A datum's pair tables hold its nerve's pairs only; the document format alone asks for every pair."""

    @staticmethod
    def _sources():
        return {
            info.name: inspect.getsource(importlib.import_module(f"topoglue.{info.name}"))
            for info in pkgutil.iter_modules(topoglue.__path__)
        }

    def test_no_dense_pair_readers_left(self):
        gdata = importlib.import_module("topoglue.gdata")
        cover = importlib.import_module("topoglue.cover")
        assert not {"extract_data", "_NOTHING"} & set(vars(gdata))
        assert "EMPTY" not in inspect.getsource(cover.data_of_covering)

    def test_only_the_parser_asks_for_every_pair(self):
        names = [name for name, text in self._sources().items() if "missing entries for pairs" in text]
        assert names == ["specfile"]


class TestPython310Syntax:
    """Every module parses as Python 3.10, the oldest version ``pyproject.toml`` allows."""

    @pytest.mark.parametrize("folder", ["src/topoglue", "tests"])
    def test_modules_parse(self, folder):
        root = Path(__file__).resolve().parent.parent / folder
        paths = sorted(root.rglob("*.py"))
        assert paths
        for path in paths:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
