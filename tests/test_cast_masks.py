"""The may-fail-cast client's mask test against a per-object oracle.

``check_casts`` judges a cast site by one AND: the site may fail when
its incoming bit-vector has a bit outside the target class's subtype
mask, and only those bits name the offending classes, read one class
block at a time (``PointsToResult.classes_of_bits``).  The oracles here
are what it replaced: decode every incoming object and test its class
with the name-level subtype test, and look up each decoded object's
class.
Inputs are hypothesis programs under ci, 2obj, 2type and T-2obj (the
object-sensitive ones give heap-context clones, whose ids lie above the
hierarchy-ordered block), each with two extra casts: to a class outside
the numbering and to a declared class nothing allocates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_analysis
from repro.clients import check_casts
from repro.frontend import parse_program
from repro.incr.edits import replace_method_body
from repro.ir.statements import Cast
from repro.pta.bitset import bits_to_list

from tests.program_strategies import ir_programs

CONFIGS = ["ci", "2obj", "2type", "T-2obj"]


def per_object_report(result):
    """``(safe, may_fail, offenders)`` with one subtype test per
    incoming object's class."""
    safe, may_fail, offenders = set(), set(), {}
    for site, target, objects in result.cast_records():
        bad = {result.object_class(obj) for obj in objects
               if not result.is_subtype(result.object_class(obj), target)}
        if bad:
            may_fail.add(site)
            offenders.setdefault(site, set()).update(bad)
        else:
            safe.add(site)
    safe -= may_fail
    return (safe, may_fail,
            tuple((site, frozenset(classes))
                  for site, classes in sorted(offenders.items())))


def with_odd_casts(program):
    """``program`` plus casts of the first variable main assigns to a
    class outside the numbering and to a declared class nothing
    allocates."""
    main = program.entry
    source = next(stmt.target for stmt in main.statements
                  if getattr(stmt, "target", None) is not None)
    extra = [Cast("ghost_cast", "Ghost", source, cast_site=10_000),
             Cast("util_cast", "Util", source, cast_site=10_001)]
    return replace_method_body(program, main.qualified_name,
                               list(main.statements) + extra)


def assert_matches_oracle(result):
    report = check_casts(result)
    safe, may_fail, offenders = per_object_report(result)
    assert report.safe_sites == safe
    assert report.may_fail_sites == may_fail
    assert report.offending_classes == offenders


@given(program=ir_programs(), config=st.sampled_from(CONFIGS))
@settings(max_examples=60, deadline=None)
def test_mask_classification_matches_per_object(program, config):
    run = run_analysis(with_odd_casts(program), config)
    result = run.result
    assert {10_000, 10_001} <= {site for site, _, _ in result.cast_records()}
    assert_matches_oracle(result)


#: ``make`` allocates under each receiver's heap context, so ``a`` and
#: ``b`` hold clones interned above the numbered block
FACTORY_SOURCE = """
class T { }
class U extends T { }
class V { }
class F {
  method make() { t = new U(); return t; }
  method other() { v = new V(); return v; }
}
main {
  f1 = new F();
  f2 = new F();
  a = f1.make();
  b = f2.make();
  c = f2.other();
  d = a;
  d = c;
  x = (T) d;
  y = (U) b;
  z = (V) a;
}
"""


@pytest.mark.parametrize("config", ["2obj", "2type"])
def test_heap_context_clones_reach_casts(config):
    """Objects interned above the numbered block (heap-context clones)
    reach cast sites, and the mask test still agrees object by object."""
    program = with_odd_casts(parse_program(FACTORY_SOURCE))
    result = run_analysis(program, config).result
    numbered = result._solver._numbering.count
    overflow = {obj for _, _, objects in result.cast_records()
                for obj in objects if obj >= numbered}
    assert overflow
    assert_matches_oracle(result)
    report = check_casts(result)
    assert report.offenders_of(10_000) == {"F"}
    # (T) d, (V) a and both added casts; only (U) b is safe
    assert len(report.may_fail_sites) == 4 and report.safe_count == 1


def per_object_classes(result, bits):
    """The classes of ``bits`` by decoding every object."""
    return {result.object_class(obj) for obj in bits_to_list(bits)}


def assert_classes_match(result, extra=()):
    """``classes_of_bits`` against the per-object decode on every cast
    source, its failing part, and each bit-vector in ``extra``."""
    vectors = list(extra)
    for _, target, bits in result.cast_bits():
        vectors += [bits, bits & ~result.subtype_mask(target)]
    for bits in vectors:
        assert result.classes_of_bits(bits) == per_object_classes(result, bits)


@given(program=ir_programs(), config=st.sampled_from(CONFIGS),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_classes_of_bits_matches_per_object(program, config, data):
    result = run_analysis(with_odd_casts(program), config).result
    live = list(result.objects())
    subset = data.draw(st.sets(st.sampled_from(live)) if live
                       else st.just(set()))
    every = sum(1 << obj for obj in live)
    some = sum(1 << obj for obj in subset)
    assert_classes_match(result, extra=(0, every, some))


@pytest.mark.parametrize("config", ["2obj", "2type"])
def test_classes_of_bits_reads_overflow_ids(config):
    """Heap-context clones sit above the numbered block: they are read
    one by one, after the class blocks below them."""
    result = run_analysis(with_odd_casts(parse_program(FACTORY_SOURCE)),
                          config).result
    numbered = result._solver._numbering.count
    every = sum(1 << obj for obj in result.objects())
    assert every >> numbered
    assert_classes_match(result, extra=(every, every >> numbered << numbered))
