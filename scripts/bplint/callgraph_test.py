#!/usr/bin/env python3
"""Unit tests for the bplint call graph (callgraph.py).

Each test builds a tiny project from inline C++ sources through the real
cppmodel front end — the graph is only ever constructed from FileFacts,
so testing through analyze_file keeps the lexer/parser contract honest.

Run from anywhere:

    python3 scripts/bplint/callgraph_test.py
"""

import os
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from callgraph import CallGraph, key_str, render_chain  # noqa: E402
from cppmodel import analyze_file  # noqa: E402


def graph(*sources):
    """CallGraph over synthetic files f0.cc, f1.cc, ..."""
    files = [analyze_file("f%d.cc" % i, src)
             for i, src in enumerate(sources)]
    return CallGraph(files)


class ResolutionTest(unittest.TestCase):
    def test_free_function_edge(self):
        g = graph("""
            void Leaf() {}
            void Caller() { Leaf(); }
        """)
        self.assertEqual(g.edges[("", "Caller")], [("", "Leaf")])

    def test_same_class_beats_free_function(self):
        g = graph("""
            void Tick() {}
            struct Clock {
              void Tick() {}
              void Advance() { Tick(); }
            };
        """)
        self.assertEqual(g.edges[("Clock", "Advance")], [("Clock", "Tick")])

    def test_explicit_qualifier(self):
        g = graph("""
            struct Codec { static void Reset() {} };
            void Reset() {}
            void Reinit() { Codec::Reset(); }
        """)
        self.assertEqual(g.edges[("", "Reinit")], [("Codec", "Reset")])

    def test_member_call_through_declared_field(self):
        g = graph("""
            struct Transport { void Send(int n) {} };
            struct Wire { void Send(int n) {} };
            struct Session {
              Transport* net_;
              void Flush() { net_->Send(1); }
            };
        """)
        # Send exists on two classes, but the field type of net_ settles it.
        self.assertEqual(g.edges[("Session", "Flush")],
                         [("Transport", "Send")])

    def test_unique_method_without_field(self):
        g = graph("""
            struct Transport { void Send(int n) {} };
            void Flush(void* net) { net->Send(1); }
        """)
        # No declared field, but only one project class defines Send.
        self.assertEqual(g.edges[("", "Flush")], [("Transport", "Send")])

    def test_ambiguous_method_stays_unresolved(self):
        g = graph("""
            struct Transport { void Send(int n) {} };
            struct Wire { void Send(int n) {} };
            void Flush(void* x) { x->Send(1); }
        """)
        # Two candidate classes, no field type: silence, never a guess.
        self.assertEqual(g.edges[("", "Flush")], [])

    def test_overload_set_is_one_node(self):
        g = graph("""
            void Emit(int n) { Raw(n); }
            void Emit(int n, int m) {}
            void Raw(int n) {}
        """)
        self.assertEqual(len(g.defs[("", "Emit")]), 2)
        # The set's edges are the union of every overload's calls.
        self.assertEqual(g.edges[("", "Emit")], [("", "Raw")])

    def test_cross_file_resolution(self):
        g = graph("long Helper();\nlong Use() { return Helper(); }",
                  "long Helper() { return 7; }")
        self.assertEqual(g.edges[("", "Use")], [("", "Helper")])


class TaintTest(unittest.TestCase):
    CYCLE = """
        void A() { B(); }
        void B() { A(); C(); }
        void C() {}
    """

    def test_taint_through_cycle(self):
        g = graph(self.CYCLE)
        taint = g.taint_toward({("", "C"): "seed"})
        # Both cycle members reach C exactly once; recursion neither
        # loops nor double-taints.
        self.assertEqual(set(taint), {("", "A"), ("", "B"), ("", "C")})
        src, chain = taint[("", "A")]
        self.assertEqual(src, "seed")
        self.assertEqual(chain, (("", "A"), ("", "B"), ("", "C")))

    def test_taint_two_deep_witness_chain(self):
        g = graph("""
            long Entropy() { return 0; }
            long Wrap() { return Entropy(); }
            long Top() { return Wrap(); }
        """)
        taint = g.taint_toward({("", "Entropy"): "time()"})
        src, chain = taint[("", "Top")]
        self.assertEqual(render_chain(chain), "Top -> Wrap -> Entropy")

    def test_witness_prefers_shortest_chain(self):
        g = graph("""
            void Seed() {}
            void Long1() { Seed(); }
            void Long2() { Long1(); }
            void Top() { Long2(); Seed(); }
        """)
        _, chain = g.taint_toward({("", "Seed"): "s"})[("", "Top")]
        self.assertEqual(chain, (("", "Top"), ("", "Seed")))

    def test_unresolved_call_degrades_to_silence(self):
        g = graph("void Top() { Mystery(); }")
        self.assertEqual(g.edges[("", "Top")], [])
        self.assertEqual(g.taint_toward({("", "Mystery"): "x"}), {})


class NameTest(unittest.TestCase):
    def test_key_str(self):
        self.assertEqual(key_str(("", "Free")), "Free")
        self.assertEqual(key_str(("Cls", "Method")), "Cls::Method")


if __name__ == "__main__":
    unittest.main()
