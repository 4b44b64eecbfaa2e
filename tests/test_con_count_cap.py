"""Con(L) refused by its length before it is built.

``all_congruences(lat, max_size, max_count)`` caps |Con L| as well as |L|:
a distributive Con(L) is refused by its length 2^|J(L)| before any
congruence is built, and the join closure once it has found one congruence
more than the cap.  The CLI charges the |Con L| |L| labels of the list
against ``--max-work``, so that ``chain-30``, with 2^29 congruences, is
refused at once instead of filling memory.
"""

import time

import pytest

from latquot import (
    MODULAR,
    all_congruences,
    chain,
    free_modular_3,
    m3,
    n5,
    product,
    verify_theorem1,
    verify_theorem3,
)
from latquot import congruence
from latquot.cli import main
from latquot.errors import SizeLimitExceeded


def test_a_distributive_con_l_is_refused_before_any_congruence_is_built(monkeypatch):
    calls = []
    build = congruence._mask_congruence

    def counted(lat, closed):
        calls.append(closed)
        return build(lat, closed)

    monkeypatch.setattr(congruence, "_mask_congruence", counted)
    lat = chain(24).lattice
    with pytest.raises(SizeLimitExceeded, match="8388608 exceeds the count cap 1000000"):
        all_congruences(lat, max_size=24, max_count=10**6)
    assert calls == []
    # at the cap exactly, the list is built
    assert len(all_congruences(chain(5).lattice, max_count=16)) == 16
    with pytest.raises(SizeLimitExceeded):
        all_congruences(chain(5).lattice, max_count=15)


@pytest.mark.parametrize("lat", [m3().lattice, n5().lattice, product(n5().lattice, m3().lattice),
                                 free_modular_3().lattice], ids=["m3", "n5", "n5 x m3", "fm-3"])
def test_the_join_closure_is_refused_one_congruence_past_the_cap(lat):
    assert lat.day().sources != 0  # not distributive: the join closure runs
    count = len(all_congruences(lat, max_size=len(lat)))
    assert len(all_congruences(lat, max_size=len(lat), max_count=count)) == count
    with pytest.raises(SizeLimitExceeded, match=f"exceeds the count cap {count - 1}"):
        all_congruences(lat, max_size=len(lat), max_count=count - 1)


def test_the_callers_of_all_congruences_pass_the_count_cap():
    lat = chain(4).lattice  # 8 congruences
    verify_theorem1(lat, MODULAR, max_count=8)
    with pytest.raises(SizeLimitExceeded):
        verify_theorem1(lat, MODULAR, max_count=7)


def test_theorem_3_charges_each_factor_its_own_labels():
    # chain-4: 8 congruences of 4 labels, 32 labels; n5: 5 of 5, 25 labels.
    # Charged at the larger factor's 5 labels, chain-4's list would be
    # capped at 6 congruences and refused under 32.
    l1, l2 = chain(4).lattice, n5().lattice
    report = verify_theorem3(l1, l2, MODULAR, max_work=32)
    assert report.ok and report.details == ["factored all 40 product congruences"]
    with pytest.raises(SizeLimitExceeded, match="8 exceeds the count cap 7"):
        verify_theorem3(l1, l2, MODULAR, max_work=31)
    # and n5 at its own 5: 25 labels fit, 24 do not
    with pytest.raises(SizeLimitExceeded, match="exceeds the count cap 4"):
        verify_theorem3(chain(2).lattice, l2, MODULAR, max_work=24)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_chain_30_is_refused_at_once(capsys):
    for argv, code_wanted in (
            (["congruences", "catalog:chain-30", "--max-con", "30"], 3),
            (["check", "--theorem", "1", "catalog:chain-30", "--max-con", "30"], 3),
            (["info", "catalog:chain-30", "--max-con", "30"], 0)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == code_wanted, argv
        assert "Traceback" not in out + err
        if code == 3:
            assert out == ""
            assert err.startswith("size limit: |Con L| = 536870912 exceeds the count cap 333333")
        else:
            assert out.rstrip("\n").endswith("|Con|=n/a")


def test_the_list_is_charged_its_labels_against_max_work(capsys):
    # chain-4 has 8 congruences of 4 labels each: 32 labels
    code, out, _ = run(capsys, "congruences", "catalog:chain-4", "--max-work", "32")
    assert code == 0 and len(out.splitlines()) == 8
    code, out, err = run(capsys, "congruences", "catalog:chain-4", "--max-work", "31")
    assert code == 3 and out == ""
    assert err.startswith("size limit: |Con L| = 8 exceeds the count cap 7")
    code, out, _ = run(capsys, "info", "catalog:chain-4", "--max-work", "32")
    assert code == 0 and out.endswith("|Con|=8\n")
    code, out, _ = run(capsys, "info", "catalog:chain-4", "--max-work", "31")
    assert code == 0 and out.endswith("|Con|=n/a\n")
    # theorem 1 charges the sweep and the list each on its own: 4^3 = 64
    # assignments for the distributive law, then the 32 labels
    code, _, _ = run(capsys, "check", "--theorem", "1", "catalog:chain-4", "--max-work", "64")
    assert code == 0
    code, _, err = run(capsys, "check", "--theorem", "1", "catalog:chain-4", "--max-work", "63")
    assert code == 3 and "identity sweep" in err
    # chain-8's sweep is 8^3 = 512 assignments, and its list 128 * 8 = 1024 labels
    code, _, _ = run(capsys, "check", "--theorem", "1", "catalog:chain-8", "--max-work", "1024")
    assert code == 0
    code, _, err = run(capsys, "check", "--theorem", "1", "catalog:chain-8", "--max-work", "1023")
    assert code == 3
    assert err.startswith("size limit: |Con L| = 128 exceeds the count cap 127")


def test_theorem_2_checks_the_generators_when_the_list_is_refused(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "2", "catalog:chain-30", "--max-con", "30")
    assert code == 0
    assert out.splitlines()[-1] == "theorem 2: PASS (29 check(s))"
