import numpy as np
import pytest

import ftgamma
import ftgamma.fit
import ftgamma.gof
import layers
from tracer import Tracer


@pytest.fixture
def traced():
    tracer = Tracer(layers.PACKAGE, layers.MODULES, layers.make_hooks())
    original = ftgamma.fit.fit_ftg
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert ftgamma.fit.fit_ftg is original


def test_every_alias_of_a_function_is_wrapped(traced):
    wrapper = ftgamma.fit.fit_ftg
    assert wrapper.__wrapped__.__module__ == "ftgamma.fit"
    assert ftgamma.gof.fit_ftg is wrapper
    assert ftgamma.fit_ftg is wrapper


def test_self_times_are_nonnegative_and_parents_cover_children(traced):
    losses = ftgamma.load_external_fraud()
    fit = ftgamma.fit_ftg(losses)
    ftgamma.cvm_ad_statistics(losses, fit.params)

    par = np.frombuffer(traced.parent, dtype=np.int64)
    st, en = np.frombuffer(traced.start), np.frombuffer(traced.end)
    kids = np.flatnonzero(par >= 0)
    assert kids.size > 100
    assert np.all(st[par[kids]] <= st[kids]) and np.all(en[kids] <= en[par[kids]])

    summary = traced.summary()
    assert summary["span_violations"] == 0
    funcs = summary["functions"]
    assert all(f["self_s"] >= -1e-9 for f in funcs.values())
    assert funcs["fit.fit_ftg"]["calls"] == 1
    assert funcs["fit.inner_solve"]["calls"] > 1
    # self times partition the root spans
    roots = par < 0
    assert sum(f["self_s"] for f in funcs.values()) == pytest.approx(
        float((en[roots] - st[roots]).sum()), rel=1e-9)


def test_violations_are_counted():
    tracer = Tracer(layers.PACKAGE, ())
    tracer.names.append("x")
    # parent [0, 1], child [0.5, 2] ends after it
    for ix, parent, s, e in ((0, -1, 0.0, 1.0), (0, 0, 0.5, 2.0)):
        tracer.name_ix.append(ix)
        tracer.parent.append(parent)
        tracer.start.append(s)
        tracer.end.append(e)
    assert tracer.summary()["span_violations"] == 2  # negative self, overrun


def test_tail_value_has_ten_calls_beyond_it():
    values = list(range(100))
    assert layers.tail_value(values) == 89
    assert layers.tail_value(list(range(20))) == 9
    assert layers.tail_value(list(range(19))) == 18
