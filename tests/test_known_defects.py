"""Known wrong answers, pinned as strict expected failures.

Each test asserts the right answer, so it fails while the defect stands and
its strict xfail turns into a tier-1 failure the moment the defect is fixed.
The change that fixes one turns its test into a plain test.
"""

import json

import pytest

from sconf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason="decompose gives no N-kind link for the root 0 "
                                       "(ROADMAP: a maximal composition series when h(0) = 0)")
def test_decompose_with_a_zero_root_lists_an_n_kind_link(capsys):
    # M ⊋ N[h=1] ⊋ M[h=y] ⊋ M[h=y^2 - y]: the a = 0 layer is not simple
    code, out = run(capsys, "decompose", "--h=y^2-y", "--json")
    assert code == 0
    assert any(link.startswith("N[") for link in json.loads(out)["params"]["chain"])


@pytest.mark.xfail(strict=True, reason="decompose stops at a factor with no root in "
                                       "Q(sqrt2) (ROADMAP: decompose answers every h)")
def test_decompose_answers_an_h_that_does_not_split(capsys):
    # "no root in Q(sqrt2)" is decided by the exact root search, not a bound
    code, _ = run(capsys, "decompose", "--h=y^2-3")
    assert code == 0


def test_simplicity_at_a_1_passes_by_certificate(capsys):
    # a certificate: the pass is exact, with no word length to choose
    code, out = run(capsys, "restrict", "--check", "simplicity", "--a", "1")
    assert code == 0 and "status=pass" in out.splitlines()[0]
    assert out.splitlines()[-1].endswith("so the restriction is simple")


def test_simplicity_takes_no_word_length(capsys):
    code, out = run(capsys, "restrict", "--check", "simplicity", "--a", "1", "--words", "0")
    assert code == 3 and out == ""
