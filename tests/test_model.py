import pytest
from hypothesis import given, strategies as st

from prooftalk.model import (
    ArgumentGraph,
    CycleError,
    Diagnostic,
    Link,
    LinkRole,
    Proposition,
    Qualifier,
    QualifierKind,
    Severity,
    SlotMismatch,
    ToulminArgument,
    add_link,
    export_dot,
    render_reading,
    validate_argument,
    validate_graph,
)


def graph_with(props, args=(), links=()):
    return ArgumentGraph(
        propositions={p.id: p for p in props},
        arguments={a.id: a for a in args},
        links=tuple(sorted(links)),
    )


def simple_props(*ids):
    return [Proposition(i, f"text of {i}") for i in ids]


class TestValidateArgument:
    def test_alcolea_fixture_is_valid(self, alcolea_graph):
        arg = alcolea_graph.arguments["alcolea"]
        assert validate_argument(arg, alcolea_graph) == []

    def test_missing_warrant(self):
        g = graph_with(simple_props("d", "c"))
        arg = ToulminArgument("a", ("d",), None, "c")
        diags = validate_argument(arg, g)
        assert [d.rule for d in diags] == ["missing-warrant"]
        assert diags[0].severity is Severity.ERROR

    def test_missing_data(self):
        g = graph_with(simple_props("w", "c"))
        diags = validate_argument(ToulminArgument("a", (), "w", "c"), g)
        assert [d.rule for d in diags] == ["missing-data"]

    def test_missing_claim(self):
        g = graph_with(simple_props("d", "w"))
        diags = validate_argument(ToulminArgument("a", ("d",), "w", None), g)
        assert [d.rule for d in diags] == ["missing-claim"]

    def test_claim_coincides_with_datum(self):
        g = graph_with(simple_props("d", "w"))
        diags = validate_argument(ToulminArgument("a", ("d",), "w", "d"), g)
        assert "claim-coincides-with-datum" in [d.rule for d in diags]
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_unresolved_reference(self):
        g = graph_with(simple_props("d", "w"))
        diags = validate_argument(ToulminArgument("a", ("d",), "w", "ghost"), g)
        assert [d.rule for d in diags] == ["unresolved-reference"]
        assert diags[0].slot == "claim"

    def test_necessarily_with_rebuttals_is_warning(self):
        g = graph_with(simple_props("d", "w", "c", "r"))
        arg = ToulminArgument(
            "a", ("d",), "w", "c",
            qualifier=Qualifier(QualifierKind.NECESSARILY), rebuttals=("r",))
        diags = validate_argument(arg, g)
        assert [(d.rule, d.severity) for d in diags] == [
            ("necessarily-with-rebuttals", Severity.WARNING)]

    def test_empty_iff_all_invariants_hold(self):
        g = graph_with(simple_props("d", "w", "c", "b", "r"))
        good = ToulminArgument("a", ("d",), "w", "c", backing="b",
                               rebuttals=("r",))
        assert validate_argument(good, g) == []


class TestQualifier:
    def test_named_label_is_the_kind_word_spaced(self):
        assert [Qualifier(k).label for k in QualifierKind
                if k is not QualifierKind.CUSTOM] == [
            "necessarily", "almost certainly", "probably", "presumably"]

    def test_custom_requires_a_label(self):
        with pytest.raises(ValueError):
            Qualifier(QualifierKind.CUSTOM)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            Qualifier(QualifierKind.PROBABLY).label = "surely"


class TestArgumentGraph:
    def test_instances_share_no_dict(self):
        a, b = ArgumentGraph(), ArgumentGraph()
        assert a.propositions is not b.propositions
        assert a.arguments is not b.arguments

    def test_construction_sorts_the_links(self):
        links = (Link("b", "c", LinkRole.DATUM),
                 Link("a", "c", LinkRole.BACKING),
                 Link("a", "b", LinkRole.DATUM))
        graph = ArgumentGraph({}, {}, links)
        assert graph.links == tuple(sorted(links)) != links
        assert graph == ArgumentGraph({}, {}, links[::-1])
        assert graph != ArgumentGraph()


def chain_graph(n):
    """n arguments a0..a(n-1); claim of each is a datum of the next."""
    props, args = [], []
    for i in range(n):
        props += simple_props(f"d{i}", f"w{i}")
        args.append(ToulminArgument(
            f"a{i}", (f"d{i}",) + ((f"c{i-1}",) if i else ()),
            f"w{i}", f"c{i}"))
        props.append(Proposition(f"c{i}", f"claim {i}"))
    return graph_with(props, args)


def reachable(links, start, goal):
    # independent oracle: plain depth-first reachability
    adj = {}
    for l in links:
        adj.setdefault(l.source, []).append(l.target)

    def dfs(node, seen):
        if node == goal:
            return True
        return any(dfs(m, seen | {m}) for m in adj.get(node, [])
                   if m not in seen)
    return dfs(start, {start})


class TestAddLink:
    def test_valid_chain_link(self):
        g = chain_graph(2)
        g2 = add_link(g, "a0", "a1", LinkRole.DATUM)
        assert Link("a0", "a1", LinkRole.DATUM) in g2.links
        assert g.links == ()  # original untouched

    def test_self_link_raises(self):
        g = graph_with(
            simple_props("d", "w") + [Proposition("c", "c text")],
            [ToulminArgument("a", ("d", "c"), "w", "c2")])
        g.propositions["c2"] = Proposition("c2", "t")
        with pytest.raises((CycleError, SlotMismatch)):
            add_link(g, "a", "a", LinkRole.DATUM)

    def test_two_cycle_raises(self):
        props = simple_props("x", "y", "wa", "wb")
        a = ToulminArgument("a", ("y",), "wa", "x")
        b = ToulminArgument("b", ("x",), "wb", "y")
        g = graph_with(props, [a, b])
        g2 = add_link(g, "a", "b", LinkRole.DATUM)
        # oracle confirms b already reaches a... i.e. a reaches b
        assert reachable(g2.links, "a", "b")
        with pytest.raises(CycleError):
            add_link(g2, "b", "a", LinkRole.DATUM)

    def test_slot_mismatch(self):
        g = chain_graph(2)
        with pytest.raises(SlotMismatch):
            add_link(g, "a1", "a0", LinkRole.DATUM)

    def test_missing_argument(self):
        with pytest.raises(KeyError):
            add_link(chain_graph(1), "a0", "ghost", LinkRole.DATUM)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=10))
    def test_never_creates_cycle(self, pairs):
        # brute force on graphs of up to 6 chained arguments
        g = chain_graph(6)
        for i, j in pairs:
            try:
                g = add_link(g, f"a{i}", f"a{j}", LinkRole.DATUM)
            except (CycleError, SlotMismatch, KeyError):
                continue
        for node in g.arguments:
            assert not any(reachable(g.links, succ.target, node)
                           for succ in g.links if succ.source == node)


class TestRenderReading:
    def test_harry_sentence(self, harry_graph):
        text = render_reading(harry_graph.arguments["harry"], harry_graph)
        assert text.startswith("Given that Harry was born in Bermuda, "
                               "we can presumably claim that he is British")
        assert "since anyone born in Bermuda will generally be British" in text
        assert "(on account of various statutes" in text
        assert text.endswith("unless he's a naturalized American, "
                             "or his parents were aliens")

    def test_minimal_dwc(self):
        g = graph_with(simple_props("d", "w", "c"))
        arg = ToulminArgument("a", ("d",), "w", "c")
        assert render_reading(arg, g) == \
            "Given text of d, we can claim text of c, since text of w"

    def test_alternative_has_two_unless_alternatives(self, corpus):
        g = corpus["four_colour_alternative"][1].graph
        text = render_reading(g.arguments["alternative"], g)
        assert "unless" in text
        assert "(i)" in text and "(ii)" in text
        assert ", or " in text

    def test_invalid_argument_raises(self):
        g = graph_with(simple_props("d", "c"))
        with pytest.raises(ValueError):
            render_reading(ToulminArgument("a", ("d",), None, "c"), g)


class TestExportDot:
    def test_empty_graph_header_footer_only(self):
        assert export_dot(ArgumentGraph()) == "digraph toulmin {\n}\n"

    def test_harry_has_six_proposition_nodes_one_cluster(self, harry_graph):
        dot = export_dot(harry_graph)
        assert dot.count("shape=box") == 6
        assert dot.count("subgraph \"cluster_") == 1

    def test_alcolea_backing_to_warrant_edge(self, alcolea_graph):
        dot = export_dot(alcolea_graph)
        assert '"p_b1" -> "p_w1";' in dot

    def test_deterministic(self, harry_graph):
        assert export_dot(harry_graph) == export_dot(harry_graph)

    def test_invalid_graph_fails(self):
        g = graph_with(simple_props("d"),
                       [ToulminArgument("a", ("d",), None, None)])
        with pytest.raises(ValueError):
            export_dot(g)


def test_validate_graph_reports_link_problems():
    g = chain_graph(2)
    bad = ArgumentGraph(g.propositions, g.arguments,
                        (Link("a1", "a0", LinkRole.DATUM),))
    rules = [d.rule for d in validate_graph(bad)]
    assert "link-slot-mismatch" in rules


def test_validate_graph_reports_a_link_to_a_missing_argument():
    g = chain_graph(2)
    bad = ArgumentGraph(g.propositions, g.arguments,
                        (Link("a0", "ghost", LinkRole.DATUM),))
    assert validate_graph(bad) == [Diagnostic(
        "unresolved-link", "links", Severity.ERROR,
        "link a0->ghost references a missing argument")]


def test_diagnostics_name_the_argument_at_fault():
    g = chain_graph(2)
    bad = ArgumentGraph(
        g.propositions,
        {**g.arguments, "x": ToulminArgument("x", (), "w0", "ghost")},
        (Link("a1", "a0", LinkRole.DATUM), Link("a1", "a1", LinkRole.DATUM)))
    owners = {(d.rule, d.argument) for d in validate_graph(bad)}
    assert owners == {
        ("missing-data", "x"), ("unresolved-reference", "x"),
        ("link-slot-mismatch", "a0"), ("link-slot-mismatch", "a1"),
        ("support-cycle", None)}
