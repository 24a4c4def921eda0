"""Apply hand mutants to a copy of the repository and run tier-1 on each.

Each mutant replaces one exact text in one module of ``src/kedge``.  The
text must occur exactly once, so a refactor that moves or rewrites it makes
the tool fail loudly before anything runs, instead of passing quietly.
Each mutant also records the test that caught it, and that test must be
defined in its file; ``tests/test_tools.py`` checks both in tier-1.  Each
mutant is applied alone to a fresh copy in a temporary directory.  Its
recorded test runs there first; only if it passes does the rest of tier-1
(less ``tests/test_tools.py``) run, with ``-x``.  The mutant is caught
when a test fails, so the verdict is that of one tier-1 run.  The tool
prints caught or survived, with the first failing test, and exits 1 when
any mutant survives.  A surviving mutant costs its test and a full tier-1
run.

Usage: python tools/mutants.py [NAME ...]   (no name: every mutant)
"""
from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/kedge, exact old text, new text, the test that
# caught it as pytest names it)
MUTANTS = (
    ("fiber-p0-s-plus-one", "tvariety.py",
     "cross(W, HS2, psi_p0) + 2 * n * FM + 4 * L * VOL,",
     "cross(W, HS2, psi_p0) + 2 * n * FM + 6 * L * VOL,",
     "tests/test_acceptance.py::test_criterion_6_named_verdicts"),
    ("zariski-orthogonality-off", "zariski.py",
     "if model.intersect(p, c) != 0:",
     "if False:",
     "tests/test_zariski.py::TestCertify::test_positive_part_not_orthogonal"),
    ("curve-square-off", "volumes.py",
     "if q0.numerator * L * L != model.pair(k, k) * q0.denominator:",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_checks_the_volume_at_zero"),
    ("support-function-off", "tvariety.py",
     "if _encoded_class(model, frame) != model.log_anticanonical(frame):",
     "if False:",
     "tests/test_cli.py::TestInconsistencyExit::test_delta_support_function_certificate_is_exit_2"),
    ("ample-bound-strict", "picard.py",
     "if n > 0 and n * p1 >= 2 * L:",
     "if n > 0 and n * p1 > 2 * L:",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv3-scan_m0.csv]"),
    ("ample-bound2-strict", "picard.py",
     "if n < m and (m - n) * p2 >= 2 * L:",
     "if n < m and (m - n) * p2 > 2 * L:",
     "tests/test_cli.py::TestScanAgainstPerPointReference::test_ample_bound_is_refused_and_just_below_it_accepted[1-4-beta2-False]"),
    ("off-locus-delta-off", "verdict.py",
     '_check(a_min < s_min, "delta must be < 1 off',
     '_check(True, "delta must be < 1 off',
     "tests/test_verdict.py::TestCertification::test_tampered_delta_in_the_verdict_is_caught[off-locus]"),
    ("m1-delta-off", "verdict.py",
     '_check(a_min < s_min, "m=1 exclusion',
     '_check(True, "m=1 exclusion',
     "tests/test_verdict.py::TestCertification::test_tampered_delta_in_the_verdict_is_caught[m1-exclusion]"),
    ("curve-square-numerators-only", "volumes.py",
     "if q0.numerator * L * L != model.pair(k, k) * q0.denominator:",
     "if q0.numerator * L * L != model.pair(k, k):",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_compares_the_whole_volume_at_zero"),
    # The support's factoring order: C~1 and C~2 last, so E1 (index 2)
    # must not join them.
    ("support-order-e1-with-sections", "zariski.py",
     "support.sort(key=lambda c: (c < 2, c))",
     "support.sort(key=lambda c: (c <= 2, c))",
     "tests/test_zariski.py::TestGrowSupport::test_support_lists_the_sections_last"),
    ("reconstruction-off", "zariski.py",
     "if DivisorClass(rebuilt, s) != d:",
     "if False and DivisorClass(rebuilt, s) != d:",
     "tests/test_zariski.py::TestCertify::test_reconstruction"),
    # The sweep's one path and the curve certificate's slope at x = 0.
    ("d1-fiber-term-halved", "volumes.py",
     "- 4 * L * swept.fiber",
     "- 2 * L * swept.fiber",
     "tests/test_acceptance.py::test_criterion_1_chamber_regression"),
    ("curve-slope-off", "volumes.py",
     "if q1.numerator * L != -2 * model.pair(k, swept_curve(model, E).cls.num) * q1.denominator:",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_checks_the_slope_at_zero"),
    # One per InconsistencyError, DecompositionError or IrrationalThreshold
    # raise (or ``_check`` call) that the mutants above leave uncovered.
    ("root-constant-off", "volumes.py",
     "if c1 == 0:",
     "if False:",
     "tests/test_volumes.py::TestScalars::test_root_matches_the_rational_reference"),
    ("root-not-beyond-off", "volumes.py",
     "if num * v <= u * den:",
     "if False:",
     "tests/test_volumes.py::TestScalars::test_root_matches_the_rational_reference"),
    ("root-no-real-off", "volumes.py",
     "if disc < 0:",
     "if False:",
     "tests/test_volumes.py::TestScalars::test_root_matches_the_rational_reference"),
    ("irrational-threshold-off", "volumes.py",
     "if r is None:",
     "if False:",
     "tests/test_volumes.py::TestScalars::test_irrational_root_refused"),
    ("no-root-beyond-off", "volumes.py",
     'raise DecompositionError(f"no volume root beyond {x0} ({context})")',
     "return x0",
     "tests/test_volumes.py::TestScalars::test_root_matches_the_rational_reference"),
    ("jet-growth-failure-raw", "volumes.py",
     "except NotPseudoeffective as exc:",
     "except ZeroDivisionError as exc:",
     "tests/test_volumes.py::TestSharedEngine::test_support_growth_failure_is_refused"),
    ("falling-coefficient-off", "volumes.py",
     "if any(a < 0 for a in a1):",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_falling_coefficient_is_refused"),
    ("curve-start-off", "volumes.py",
     "if not pieces or pieces[0].x_lo != 0:",
     "if not pieces:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_refuses_a_broken_piece[start]"),
    ("curve-vanishing-off", "volumes.py",
     "if w_tau != 0:",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_refuses_a_broken_piece[vanish]"),
    ("curve-partition-off", "volumes.py",
     "if left.x_hi != right.x_lo:",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_refuses_a_broken_piece[partition]"),
    ("curve-continuity-off", "volumes.py",
     "if w * d_next != w_next * d:",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_refuses_a_broken_piece[continuity]"),
    ("curve-support-growth-off", "volumes.py",
     "if not set(left.negative_support) < set(right.negative_support):",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_requires_growing_support[left0-right0]"),
    ("curve-monotone-off", "volumes.py",
     "if any(lo[1] > 0 or hi[1] > 0 for lo, hi, _ in jets):",
     "if False:",
     "tests/test_volumes.py::TestSharedEngine::test_certificate_refuses_a_broken_piece[monotone]"),
    # What is kept once per surface: a value keyed without the swept curve,
    # without n, or without m serves another key's entry.  Each mutant
    # reads the entry of a fixed key in its place: C~1's slope half for
    # every curve, the n = 0 factor for every n, the m = 0 certificate for
    # every m.
    ("slope-half-without-curve", "zariski.py",
     "halves.append(_slope_half(model, curve, key))",
     "halves.append(_slope_half(model, C1TILDE, key))",
     "tests/test_volumes.py::TestSharedEngine::test_sweep_matches_pointwise_reference"),
    ("factor-without-n", "zariski.py",
     "factor = _support_factor(model, key)",
     "factor = _support_factor(SurfaceModel(0, model.m), key)",
     "tests/test_volumes.py::TestSharedEngine::test_sweep_matches_pointwise_reference"),
    ("torus-certificate-without-m", "tvariety.py",
     "    _certify_support_function(model)\n",
     "    _certify_support_function(SurfaceModel(model.n, 0))\n",
     "tests/test_tvariety.py::TestCertificate::test_equal_models_run_one_certificate"),
    # The one instance of a surface and the one cache of kept values: a
    # registry keyed by n alone returns another m's surface, and a cache
    # whose value is keyed without its build serves a key's first build
    # for every build (the torus certificate for the oracle's family).
    ("registry-without-m", "picard.py",
     "        key = n, m\n",
     "        key = n\n",
     "tests/test_picard.py::test_one_instance_per_surface"),
    ("kept-value-without-build", "picard.py",
     "def _kept(build, model, *key):\n    return build(model, *key)",
     "def _kept(build, model, *key, _first={}):\n"
     "    return _first.setdefault((model, *key), build)(model, *key)",
     "tests/test_picard.py::test_kept_values_are_told_apart_by_their_build"),
    ("torus-vol-positive-off", "tvariety.py",
     "if VOL <= 0:",
     "if False:",
     "tests/test_tvariety.py::TestDelta::test_nonpositive_vol_is_an_inconsistency"),
    ("torus-s-positive-off", "tvariety.py",
     "if si <= 0:",
     "if False:",
     "tests/test_cli.py::TestInconsistencyExit::test_nonpositive_s_is_exit_2[delta-0]"),
    ("condition-delta-one-off", "verdict.py",
     "if a_min != s_min:",
     "if False:",
     "tests/test_verdict.py::TestCertification::test_tampered_delta_is_caught"),
    # The paper's theorem as one table: one mutant per (alpha, beta) row of
    # ``orbit_rows``, and the verdict's check of every row at a
    # condition point turned off.  FiberP0's row is read by the verdict
    # alone; the closed forms read the generic fiber's, the last.
    ("weights-c1-row", "picard.py",
     "(C1TILDE, 1, 2, -2)",
     "(C1TILDE, 1, 2, -1)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("weights-c2-row", "picard.py",
     "(C2TILDE, 1, -2, 2)",
     "(C2TILDE, 1, -1, 2)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("weights-e-row", "picard.py",
     "(E1, m, n - 2, m - n)",
     "(E1, m, n - 1, m - n)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("weights-f-row", "picard.py",
     "(F1TILDE, m, n, m - n - 2)",
     "(F1TILDE, m, n, m - n - 1)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("weights-fiber-p0-row", "picard.py",
     "(FIBER_P0, 1, n, m - n)",
     "(FIBER_P0, 1, n + 1, m - n - 1)",
     "tests/test_tvariety.py::TestIntegerRoute::test_every_orbit_is_its_row_of_the_orbit_table"),
    ("weights-generic-fiber-row", "picard.py",
     "(GENERIC_FIBER, 1, n, m - n)",
     "(GENERIC_FIBER, 1, n, m - n + 1)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("condition-point-rows-off", "verdict.py",
     "_check(ai - si == 2 * (alpha + beta) * f1,",
     "_check(True,",
     "tests/test_verdict.py::TestCertification::test_tampered_term_is_caught"),
    ("futaki-sign-off", "verdict.py",
     "_check(fm == 2 * (f2 - f1),",
     "_check(True,",
     "tests/test_verdict.py::TestCertification::test_flipped_futaki_sign_is_caught"),
    # The first moment checked only for its sign: a torus-route fault that
    # keeps the sign, FM doubled, goes through.
    ("futaki-check-signs-only", "verdict.py",
     "_check(fm == 2 * (f2 - f1),",
     "_check(sign(fm) == -csign,",
     "tests/test_cli.py::TestInconsistencyExit::test_tampered_torus_integers_are_exit_2[delta-fm-doubled]"),
    # The one spelling of the angle condition's cubics.
    ("boundary-cubic-m-sign", "picard.py",
     "(self.n - self.m)",
     "(self.n + self.m)",
     "tests/test_verdict.py::TestConditionSign::test_integer_bracket_matches_rational_bracket"),
    ("condition-point-self-check-off", "verdict.py",
     "if condition_sign(model, angles) != 0:",
     "if False:",
     "tests/test_verdict.py::TestConditionPoints::test_point_off_the_locus_is_an_inconsistency"),
    ("zariski-nef-off", "zariski.py",
     'if not model.is_nef(p):\n        raise DecompositionError',
     'if False:\n        raise DecompositionError',
     "tests/test_zariski.py::TestCertify::test_positive_part_not_nef"),
    ("zariski-coefficient-sign-off", "zariski.py",
     "if coeff <= 0:",
     "if False:",
     "tests/test_zariski.py::TestCertify::test_nonpositive_coefficient"),
    ("zariski-definite-off", "zariski.py",
     "if not is_negative_definite(model, zd.support):",
     "if False and not is_negative_definite(model, zd.support):",
     "tests/test_zariski.py::TestCertify::test_support_not_negative_definite"),
    ("bruteforce-two-decompositions-off", "zariski.py",
     "if found is not None and (found.positive != zd.positive",
     "if False and (found.positive != zd.positive",
     "tests/test_zariski.py::TestDecompose::test_two_decompositions_are_an_inconsistency"),
    # The divisor class's one constructor: a positive denominator, and the
    # lowest terms that equality compares.
    ("divisor-den-check-off", "picard.py",
     "if den <= 0:",
     "if False:",
     "tests/test_picard.py::test_divisor_class_refuses_a_nonpositive_denominator[-1]"),
    ("divisor-lowest-terms-off", "picard.py",
     "if g != 1:",
     "if False:",
     "tests/test_acceptance.py::test_criterion_3_zariski_oracle"),
    # The one equality of the frozen values reads every argument that
    # rebuilds a value, not only the first.
    ("value-eq-first-argument", "picard.py",
     "return self._args() == other._args()",
     "return self._args()[0] == other._args()[0]",
     "tests/test_picard.py::test_values_equal_only_equal_values_of_their_type"),
    # The angles' integer form (L, P1, P2), formed once per angle pair.
    ("angles-p2-scale-wrong", "picard.py",
     "b2.numerator * (L // q2)",
     "b2.numerator * (L // q1)",
     "tests/test_picard.py::test_angles_integer_form_matches_the_reference"),
    ("angles-p2-zero-accepted", "picard.py",
     "if p1 <= 0 or p2 <= 0:",
     "if p1 <= 0 or p2 < 0:",
     "tests/test_picard.py::test_angles_refuse_a_nonpositive_angle[1/2-0-1/2, 0]"),
    ("angles-positivity-off", "picard.py",
     "if p1 <= 0 or p2 <= 0:",
     "if False:",
     "tests/test_picard.py::test_angles_validation"),
    # A curve is its name: the refusals of a name that is no curve of the
    # surface.
    ("class-of-index-bound-off", "picard.py",
     "if len(e or f) > len(str(m)) or int(e or f) > m:",
     "if False:",
     "tests/test_cli.py::TestInputHandling::test_curve_index_out_of_range"),
    ("cli-curve-existence-off", "cli.py",
     "model.class_of(curve)\n    except ValueError:",
     "pass\n    except ValueError:",
     "tests/test_cli.py::TestInputHandling::test_curve_index_out_of_range"),
    ("log-discrepancy-refusal-off", "volumes.py",
     "    model.class_of(E)\n    return Rat(1)",
     "    return Rat(1)",
     "tests/test_picard.py::test_unknown_curve_kind_is_refused"),
    # The one map from a name to its S_m orbit, and the one speller of an
    # orbit's names.
    ("orbit-of-e-f-swapped", "picard.py",
     "return (E1 if e else F1TILDE), int(e or f)",
     "return (F1TILDE if e else E1), int(e or f)",
     "tests/test_picard.py::test_orbit_of_and_orbit_names_invert_each_other"),
    ("orbit-names-one-short", "picard.py",
     "range(1, size + 1)",
     "range(1, size)",
     "tests/test_picard.py::test_orbit_of_and_orbit_names_invert_each_other"),
    # Inputs of the wrong type: a bool surface parameter, a float slope.
    ("surface-model-bool-accepted", "picard.py",
     "if type(n) is not int or type(m) is not int:",
     "if not (isinstance(n, int) and isinstance(m, int)):",
     "tests/test_picard.py::test_surface_model_validation"),
    # The one reader of a caller's rational: a float read through Rat, a
    # bool read as an int.
    ("condition-point-float-accepted", "ratmath.py",
     "if isinstance(value, float):\n        raise",
     "if isinstance(value, float):\n        return Rat(value)\n        raise",
     "tests/test_picard.py::test_angles_refuse_a_float"),
    ("reader-bool-accepted", "ratmath.py",
     "if type(value) is int:",
     "if isinstance(value, int):",
     "tests/test_verdict.py::TestConditionPoints::test_angles_and_condition_points_read_a_value_alike[True-<class 'TypeError'>]"),
    # The closed-form oracle: each classification boundary, one coefficient
    # of S(F~i) and the k of the C~1 + C~2 chamber.
    ("classify-n0-tie-strict", "closedforms.py",
     "CASE_N_ZERO if p1 + m * p2 <= 2 * L else None",
     "CASE_N_ZERO if p1 + m * p2 < 2 * L else None",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("classify-c1-first-tie-strict", "closedforms.py",
     "if (n - 1) * p1 >= (m - n) * p2:",
     "if (n - 1) * p1 > (m - n) * p2:",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[2]"),
    ("classify-c2-first-tie-strict", "closedforms.py",
     "CASE_C2_FIRST if p1 + (m - n) * p2 <= 2 * L else None",
     "CASE_C2_FIRST if p1 + (m - n) * p2 < 2 * L else None",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[1]"),
    ("closed-s-rows-e-f-swapped", "closedforms.py",
     "if row[0] == first), None)",
     "if row[0] == {'E1': 'F1tilde', 'F1tilde': 'E1'}.get(first, first)), None)",
     "tests/test_closedforms.py::test_integer_forms_match_the_reference[0]"),
    ("closed-c1-c2-k", "closedforms.py",
     "_square(m - 1, (m - n) * (n - 1), 2 * L)",
     "_square(m, (m - n) * (n - 1), 2 * L)",
     "tests/test_acceptance.py::test_criterion_1_chamber_regression"),
    # A chamber's constant term divided by d L, not d L^2.
    ("freeze-q0-over-d-l", "closedforms.py",
     "Rat(a0, d * L * L)",
     "Rat(a0, d * L)",
     "tests/test_acceptance.py::test_criterion_1_chamber_regression"),
    # E_i's partner F~i: only a test with i > 1 tells it from F~1.
    ("closed-form-partner-first", "closedforms.py",
     "fi = FiTilde(i)",
     "fi = FiTilde(1)",
     "tests/test_closedforms.py::test_oracle_curves_integrate_to_their_S_at_large_m"),
    # The --config size bound, and the one line and exit 2 of an internal
    # fault.
    ("config-size-bound-off", "cli.py",
     "if len(text) > MAX_CONFIG_CHARS:",
     "if False:",
     "tests/test_cli.py::TestConfigAndOutput::test_config_size_bound"),
    ("internal-error-handler-off", "cli.py",
     "except Exception as exc:",
     "except ArithmeticError as exc:",
     "tests/test_cli.py::TestInternalFault::test_every_called_function_that_fails_gives_one_line_and_exit_2[delta]"),
    # The one reader of caller input: only its ValueError is the caller's.
    ("read-catches-any-exception", "cli.py",
     "    except ValueError as exc:\n        _user_error(str(exc))",
     "    except Exception as exc:\n        _user_error(str(exc))",
     "tests/test_cli.py::TestInternalFault::test_every_called_function_that_fails_gives_one_line_and_exit_2[delta]"),
    # The verify battery's inputs and its oracle's family: randint's
    # rejection bound, and a walk that skips the next candidate.
    ("sampler-reject-bound", "sampling.py",
     "while r >= w:",
     "while r > w:",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv2-verify_small.json]"),
    # The sampler's ample test, with the two angles' numerators swapped.
    ("sampler-ample-numerators-swapped", "sampling.py",
     "broken_ample_bound(d1 * d2, p1 * d2, p2 * d1)",
     "broken_ample_bound(d1 * d2, p2 * d1, p1 * d2)",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv2-verify_small.json]"),
    ("oracle-family-start", "zariski.py",
     "yield from extend(subset + (c,), grown, c + 1)",
     "yield from extend(subset + (c,), grown, c + 2)",
     "tests/test_acceptance.py::test_criterion_3_zariski_oracle"),
    # S from the volume curve's pieces, and an angle string read by the
    # CLI's literal grammar and bounds.
    ("s-integral-linear-term", "volumes.py",
     "+ 3 * c1 * B * (X + Y)",
     "+ 2 * c1 * B * (X + Y)",
     "tests/test_acceptance.py::test_criterion_1_chamber_regression"),
    # The one integer reading of a piece, which the integral and the
    # certificate's jets share: d without q2's denominator.
    ("numerators-d-drops-d2", "volumes.py",
     "q2.numerator * d0 * d1, d0 * d1 * d2",
     "q2.numerator * d0 * d1, d0 * d1",
     "tests/test_acceptance.py::test_criterion_1_chamber_regression"),
    ("angles-string-through-rat", "ratmath.py",
     "return parse_rat(value, accept_decimal=True)",
     "return Rat(value)",
     "tests/test_picard.py::test_angles_read_a_string_by_the_literal_grammar"),
    ("orbit-term-a-halved", "tvariety.py",
     "Orbit(first, size, Rat(self.a[i], den),",
     "Orbit(first, size, Rat(self.a[i], 2 * den),",
     "tests/test_acceptance.py::test_criterion_4_route_agreement"),
    # A scan axis's integer count, and the orbit table that the records
    # formed on read take their names and sizes from: the E_i and F~i
    # names swapped, the E_i orbit one member too many, and the two fibers'
    # names swapped (their rows are equal, so only the names move).
    ("grid-count-one-short", "cli.py",
     "count = (stop.numerator * D - s * q) // (t * q) + 1",
     "count = (stop.numerator * D - s * q) // (t * q)",
     "tests/test_cli.py::TestScanAgainstPerPointReference::test_scan_matches_the_reference_byte_for_byte"),
    # A scan row's delta cell in lowest terms, as format_rat writes delta.
    ("scan-delta-unreduced", "cli.py",
     "g = math.gcd(a_min, s_min)",
     "g = 1",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv3-scan_m0.csv]"),
    # The JSON writer: a Rat spelled by str ("1/1" becomes "1"), and every
    # other scalar by repr (true becomes True).
    ("json-rat-by-str", "cli.py",
     "out.append(_encode_str(format_rat(value)))",
     "out.append(_encode_str(str(value)))",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv0-delta_f0_blow2_half.json]"),
    ("json-scalar-by-repr", "cli.py",
     "out.append(json.dumps(value))",
     "out.append(repr(value))",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv2-verify_small.json]"),
    ("orbit-rows-e-f-names-swapped", "picard.py",
     "curves = ((E1, m, n - 2, m - n), (F1TILDE, m, n, m - n - 2)) if m else ()",
     "curves = ((F1TILDE, m, n - 2, m - n), (E1, m, n, m - n - 2)) if m else ()",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv0-delta_f0_blow2_half.json]"),
    ("orbit-rows-e-size-off", "picard.py",
     "(E1, m, n - 2, m - n)",
     "(E1, m + 1, n - 2, m - n)",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv0-delta_f0_blow2_half.json]"),
    ("orbit-rows-fiber-names-swapped", "picard.py",
     "(FIBER_P0, 1, n, m - n), (GENERIC_FIBER, 1, n, m - n)",
     "(GENERIC_FIBER, 1, n, m - n), (FIBER_P0, 1, n, m - n)",
     "tests/test_cli.py::TestGoldens::test_byte_identical[argv0-delta_f0_blow2_half.json]"),
    # The torus answer over one denominator D = 2 L VOL: the scale of every
    # a, the least-orbit search on a, and the witnesses as the orbits tied
    # at the minimum.  (With <= in place of ==, the witnesses would not
    # change: no orbit has a s_min < a_min s.)
    ("delta-scale-dropped", "tvariety.py",
     "two_vol = 2 * VOL",
     "two_vol = VOL",
     "tests/test_tvariety.py::TestOrbitRecords::test_matches_name_expanding_reference"),
    ("least-orbit-greatest", "tvariety.py",
     "if a[i] * s_min < a_min * si:",
     "if a[i] * s_min > a_min * si:",
     "tests/test_tvariety.py::TestOrbitRecords::test_matches_name_expanding_reference"),
    ("witnesses-every-orbit", "tvariety.py",
     "if a * s_min == a_min * s for name",
     "if a * s_min >= a_min * s for name",
     "tests/test_tvariety.py::TestOrbitRecords::test_matches_name_expanding_reference"),
)

IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+)$", re.MULTILINE)


def check_table(mutants) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for name, module, old, _, _ in mutants:
        count = (ROOT / "src" / "kedge" / module).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {module}: {old!r}")
    return problems


def defines_test(test: str) -> bool:
    """Whether ``test`` (``path::[Class::]function[parameters]``) names a
    test function that its file defines."""
    path, *scope = test.split("[")[0].split("::")
    file = ROOT / path
    if not scope or not file.is_file():
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for depth, name in enumerate(scope, 1):
        kind = ast.FunctionDef if depth == len(scope) else ast.ClassDef
        node = next((n for n in body if isinstance(n, kind) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def check_tests(mutants) -> list[str]:
    """One message per mutant whose recorded test is not defined."""
    return [f"{name}: recorded test {test!r} is not defined"
            for name, _, _, _, test in mutants if not defines_test(test)]


def run_mutant(module: str, old: str, new: str, test: str) -> str | None:
    """The first failing test on a mutated copy, with pytest's one-line
    reason, or None: ``test`` first, then the rest of tier-1.
    ``tests/test_tools.py`` is left out: it checks this table's anchors,
    which the mutant itself rewrites."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        path = copy / "src" / "kedge" / module
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        for selection in ([test], ["--deselect", test, "tests"]):
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--ignore=tests/test_tools.py", *selection],
                cwd=copy, env=env, capture_output=True, text=True,
            )
            if result.returncode == 0:
                continue
            failed = FAILED.search(result.stdout)
            if failed or selection[0] != test:
                return failed[1] if failed else f"pytest exit {result.returncode}"
            # The recorded test did not run (not collected, or collection
            # failed); tier-1 decides.
            print(f"  {test}: pytest exit {result.returncode}, no test failed",
                  file=sys.stderr, flush=True)
    return None


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    problems = (check_table(chosen) + check_tests(chosen)
                + [f"unknown mutant {name!r}" for name in sorted(unknown)])
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survived = 0
    for name, module, old, new, test in chosen:
        failing = run_mutant(module, old, new, test)
        survived += failing is None
        status = "survived" if failing is None else f"caught    {failing[:160]}"
        print(f"{name:<30} {status}", flush=True)
    print(f"{len(chosen) - survived} caught, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
