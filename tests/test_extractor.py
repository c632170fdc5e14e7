"""Java extraction: exclusions, spans, determinism."""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.extractor import DEFAULT_EXCLUDED_METHODS, JavaParseError, extract, parse_java_file
from remap.javalex import JavaLexError, lex
from remap.records import load_snapshot, save_snapshot


def parse(source, rel="p/A.java", is_test=False):
    return parse_java_file(textwrap.dedent(source), rel, is_test)


def test_plain_method_with_class_doc():
    classes, methods = parse(
        """\
        package soot.util;

        /** Utility methods for string manipulations commonly used in Soot. */
        public class StringTools {
            public static String getEscapedStringOf(String fromString) {
                return fromString;
            }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["soot.util.StringTools"]
    assert classes[0].class_doc == "Utility methods for string manipulations commonly used in Soot."
    (m,) = methods
    assert m.method_name == "getEscapedStringOf"
    assert m.return_type == "String"
    assert m.params == (("String", "fromString"),)


def test_interface_signatures_yield_nothing():
    classes, methods = parse(
        """\
        package p;
        public interface Host {
            void visit(int x);
            String name();
        }
        """
    )
    assert methods == []
    assert [c.qualified_name for c in classes] == ["p.Host"]


def test_interface_default_method_has_a_body():
    _, methods = parse(
        """\
        package p;
        public interface Host {
            void visit(int x);
            default int twice(int x) {
                int y = x * 2;
                return y;
            }
            @SuppressWarnings("x") default int half(int x) { return x / 2; }
        }
        """
    )
    assert [m.method_name for m in methods] == ["twice", "half"]


def test_tostring_override_excluded():
    _, methods = parse(
        """\
        package p;
        public class A {
            @Override
            public String toString() {
                return "A";
            }
            public int size() {
                return 1;
            }
        }
        """
    )
    assert [m.method_name for m in methods] == ["size"]


def test_every_base_object_override_is_excluded():
    _, methods = parse(
        """\
        package p;
        public class A implements Cloneable {
            public String toString() { return "A"; }
            public boolean equals(Object o) { return o == this; }
            public int hashCode() { return 1; }
            protected Object clone() { return this; }
            protected void finalize() { }
            public int size() { return 1; }
        }
        """
    )
    assert set(DEFAULT_EXCLUDED_METHODS) == {"toString", "equals", "hashCode", "clone", "finalize"}
    assert [m.method_name for m in methods] == ["size"]


def test_constructors_and_abstract_methods_excluded():
    _, methods = parse(
        """\
        package p;
        public abstract class A {
            private int n;
            public A(int n) {
                this.n = n;
            }
            public abstract void step();
            public int get() {
                return n;
            }
        }
        """
    )
    assert [m.method_name for m in methods] == ["get"]


def test_span_loc_and_body_text_agree():
    _, methods = parse(
        """\
        package p;
        public class A {
            public int count(java.util.List<String> xs) {
                // total so far
                int n = xs.size();

                return n;
            }
        }
        """
    )
    (m,) = methods
    assert m.loc == m.span.end_line - m.span.start_line + 1
    assert len(m.body_text.split("\n")) == m.loc
    assert m.inline_comments == ("total so far",)
    assert m.local_vars == (("int", "n"),)


def test_overloads_disambiguated():
    _, methods = parse(
        """\
        package p;
        public class A {
            public int f(int x) { return x; }
            public int f(String s) { return 0; }
        }
        """
    )
    ids = {m.id for m in methods}
    assert len(ids) == 2
    assert any("f(int)" in i for i in ids)
    assert any("f(String)" in i for i in ids)


def test_generic_signature_and_locals():
    _, methods = parse(
        """\
        package p;
        public class A {
            public <T> java.util.List<T> wrap(T item, int n) {
                java.util.List<T> out = new java.util.ArrayList<>();
                for (int i = 0; i < n; i++) {
                    out.add(item);
                }
                return out;
            }
        }
        """
    )
    (m,) = methods
    assert m.method_name == "wrap"
    assert m.return_type == "java.util.List<T>"
    assert (("int", "i")) in m.local_vars
    assert (("java.util.List<T>", "out")) in m.local_vars


def test_anonymous_class_methods_attributed_with_suffix():
    classes, methods = parse(
        """\
        package p;
        public class A {
            public void go() {
                Runnable r = new Runnable() {
                    public void run() {
                        int ticks = 0;
                    }
                };
                r.run();
            }
        }
        """
    )
    names = {c.qualified_name for c in classes}
    assert "p.A$anon1" in names
    by_class = {m.class_name: m.method_name for m in methods}
    assert by_class["p.A$anon1"] == "run"
    assert by_class["p.A"] == "go"


def test_lambdas_and_initializers_are_not_methods():
    _, methods = parse(
        """\
        package p;
        public class A {
            static int N;
            static {
                N = 3;
            }
            public void go(java.util.List<String> xs) {
                xs.forEach(x -> {
                    System.out.println(x);
                });
            }
        }
        """
    )
    assert [m.method_name for m in methods] == ["go"]


def test_enum_with_constant_bodies():
    classes, methods = parse(
        """\
        package p;
        public enum Op {
            ADD("+") {
                public int apply(int a, int b) {
                    return a + b;
                }
            },
            SUB("-");

            private final String sign;
            Op(String sign) {
                this.sign = sign;
            }
            public String sign() {
                return sign;
            }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["p.Op", "p.Op$anon1"]
    names = {(m.class_name, m.method_name) for m in methods}
    assert ("p.Op", "sign") in names
    assert ("p.Op$anon1", "apply") in names


def test_unparseable_file_is_skipped_not_fatal(tmp_path):
    good = tmp_path / "src" / "main" / "A.java"
    good.parent.mkdir(parents=True)
    good.write_text("package p;\npublic class A { public int f() { return 1; } }\n")
    bad = tmp_path / "src" / "main" / "B.java"
    bad.write_text('package p;\npublic class B { public void f() { String s = "unterminated; } }\n')
    snap = extract(tmp_path)
    assert snap.summary.files_parsed == 1
    assert len(snap.summary.failed_files) == 1
    assert snap.summary.failed_files[0][0] == "src/main/B.java"


def test_a_later_file_that_declares_a_class_again_is_skipped(tmp_path):
    # two copies of one class: both methods would get one id, and one class doc would be kept
    source = "package p;\nclass A {\n\n  int f() {\n    int x = 1;\n    return x;\n  }\n}\n"
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "A.java").write_text(source)
    (tmp_path / "b" / "C.java").write_text("package p;\nclass C { int g() { return 1; } }\n")
    snap = extract(tmp_path)
    assert [r.id for r in snap.records] == ["p.A#f():4-7", "p.C#g():2-2"]
    assert snap.summary.failed_files == [("b/A.java", "class p.A is already declared in a/A.java")]
    s = snap.summary
    assert (s.files_seen, s.files_parsed, s.classes, s.methods) == (3, 2, 2, 2)


@pytest.mark.parametrize("body, culprit", [
    ("class A { int f() { return 1; } }\nclass A { int g() { return 2; } }\n", "class p.A"),
    ("class A { int f() { return 1; } int f() { return 2; } }\n", "method p.A#f():2-2"),
])
def test_a_file_that_declares_a_name_twice_is_skipped(tmp_path, body, culprit):
    (tmp_path / "A.java").write_text("package p;\n" + body)
    (tmp_path / "Z.java").write_text("package p;\nclass A { int f() { return 1; } }\n")
    snap = extract(tmp_path)  # a skipped file declares nothing, so it blocks no later file
    assert [r.span.file_path for r in snap.records] == ["Z.java"] and list(snap.class_index) == ["p.A"]
    assert snap.summary.failed_files == [("A.java", f"{culprit} is already declared in A.java")]


@pytest.mark.parametrize("tail", ["public class", "public record", "class Inner { record"])
def test_file_cut_after_a_type_keyword_is_skipped(tmp_path, tail):
    good = tmp_path / "src" / "main" / "A.java"
    good.parent.mkdir(parents=True)
    good.write_text("package p;\npublic class A { public int f() { return 1; } }\n")
    cut = tmp_path / "src" / "main" / "B.java"
    cut.write_text(f"package p;\n{tail}")
    snap = extract(tmp_path)
    assert snap.summary.files_parsed == 1
    assert [path for path, _ in snap.summary.failed_files] == ["src/main/B.java"]


def test_a_file_that_starts_with_a_byte_order_mark_keeps_its_package_and_class_doc(tmp_path):
    # editors on Windows write a UTF-8 BOM; read as text it is U+FEFF, which is no Java token
    for pkg in ("p", "q"):
        (tmp_path / pkg).mkdir()
        (tmp_path / pkg / "A.java").write_bytes(
            b"\xef\xbb\xbf" + f"package {pkg};\n/** Doc. */\npublic class A {{ int f() {{ return 1; }} }}\n".encode()
        )
    snap = extract(tmp_path)
    assert [(c.qualified_name, c.class_doc) for c in snap.class_index.values()] == [("p.A", "Doc."), ("q.A", "Doc.")]
    assert [r.id for r in snap.records] == ["p.A#f():3-3", "q.A#f():3-3"]
    assert snap.summary.failed_files == []


def test_missing_root_is_hard_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        extract(tmp_path / "nope")


def test_test_root_detection(tmp_path):
    prod = tmp_path / "src" / "main" / "A.java"
    prod.parent.mkdir(parents=True)
    prod.write_text("package p;\npublic class A { public int f() { return 1; } }\n")
    test = tmp_path / "src" / "test" / "ATest.java"
    test.parent.mkdir(parents=True)
    test.write_text("package p;\npublic class ATest { public void t() { int x = 0; } }\n")
    snap = extract(tmp_path)
    flags = {m.class_name: m.is_test for m in snap.records}
    assert flags == {"p.A": False, "p.ATest": True}


def test_extract_is_deterministic(tmp_path):
    for name, body in [("B", "int g() { return 2; }"), ("A", "int f() { return 1; }")]:
        f = tmp_path / f"{name}.java"
        f.write_text(f"package p;\npublic class {name} {{ public {body} }}\n")
    s1 = extract(tmp_path)
    s2 = extract(tmp_path)
    assert [r.id for r in s1.records] == [r.id for r in s2.records]
    assert [r.to_dict() for r in s1.records] == [r.to_dict() for r in s2.records]


def test_snapshot_roundtrip(tmp_path):
    src = tmp_path / "tree"
    (src / "src" / "main").mkdir(parents=True)
    (src / "src" / "main" / "A.java").write_text(
        "package p;\n/** doc */\npublic class A { public int f(int x) { return x; } }\n"
    )
    snap = extract(src, role="redesigned")
    out = tmp_path / "snap.jsonl"
    save_snapshot(snap, out)
    loaded = load_snapshot(out)
    assert loaded.project_id == "redesigned:tree"
    assert loaded.root_path == str(src)
    assert [r.to_dict() for r in loaded.records] == [r.to_dict() for r in snap.records]
    assert loaded.class_index == snap.class_index
    assert loaded.class_index["p.A"].class_doc == "doc"


def test_generics_with_double_closer_and_text_block():
    _, methods = parse(
        """\
        package p;
        public class A {
            public java.util.Map<String, java.util.List<Integer>> index() {
                java.util.Map<String, java.util.List<Integer>> out = new java.util.HashMap<>();
                String banner = \"\"\"
                    multi "line" text { with braces }
                    \"\"\";
                out.clear();
                return out;
            }
        }
        """
    )
    (m,) = methods
    assert m.return_type == "java.util.Map<String,java.util.List<Integer>>"
    assert (("java.util.Map<String,java.util.List<Integer>>", "out")) in m.local_vars


def test_switch_and_labeled_statements_do_not_confuse_locals():
    _, methods = parse(
        """\
        package p;
        public class A {
            public int pick(int k) {
                int chosen = 0;
                switch (k) {
                    case 1:
                        int inner = k * 2;
                        chosen = inner;
                        break;
                    default:
                        chosen = -1;
                }
                outer:
                for (int i = 0; i < k; i++) {
                    if (i == 3) {
                        break outer;
                    }
                }
                return chosen;
            }
        }
        """
    )
    (m,) = methods
    names = [n for _, n in m.local_vars]
    assert names == ["chosen", "inner", "i"]


def test_varargs_and_array_params():
    _, methods = parse(
        """\
        package p;
        public class A {
            public int total(int[] counts, String... labels) {
                int sum = 0;
                for (int c : counts) {
                    sum += c;
                }
                return sum + labels.length;
            }
        }
        """
    )
    (m,) = methods
    assert m.params[0] == ("int[]", "counts")
    assert m.params[1][1] == "labels"
    assert "..." in m.params[1][0] or "String" in m.params[1][0]


def test_snapshot_rejects_missing_class(tmp_path):
    import pytest as _pytest

    from remap.records import ClassRecord, MethodRecord, ProjectSnapshot, SourceSpan

    rec = MethodRecord(
        class_name="p.Ghost", method_name="f", return_type="int", params=(),
        local_vars=(), method_doc="", inline_comments=(),
        span=SourceSpan("A.java", 1, 5), body_text="a\nb\nc\nd\ne", is_test=False,
    )
    with _pytest.raises(ValueError):
        ProjectSnapshot("x", "original", "/x", [rec], [])


def test_annotations_generics_and_final_in_header_and_params():
    _, methods = parse(
        """\
        package p;
        public class A {
            @SuppressWarnings({"a", "b"}) @Deprecated
            public static <K extends Comparable<K>, V> Map<K, List<V>> group(
                    @Named("xs") final List<V> xs, java.util.function.Function<V, K> key, int... rest) {
                return null;
            }
            static { int skipped = 0; }
            @Override
            public String toString() { return ""; }
        }
        """
    )
    (m,) = methods
    assert (m.method_name, m.return_type) == ("group", "Map<K,List<V>>")
    assert m.params == (
        ("List<V>", "xs"),
        ("java.util.function.Function<V,K>", "key"),
        ("int...", "rest"),
    )


def test_annotation_args_that_do_not_close_end_at_their_parameter():
    # the first parameter splits at the depth-0 comma inside @B( ... ), so
    # the annotation swallows the rest of it; 'int' alone is not a parameter
    _, methods = parse("class A { void f(int @B( ] x, ) ) { } }")
    assert [(m.method_name, m.params) for m in methods] == [("f", ())]


def test_nested_anonymous_classes_number_inner_first():
    classes, methods = parse(
        """\
        package p;
        class A {
            void run() {
                Object o = new Outer<String>(new Inner() { int a() { return 1; } }) {
                    int b() { return 2; }
                };
            }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["p.A", "p.A$anon1", "p.A$anon2"]
    assert [(m.class_name, m.method_name) for m in methods] == [
        ("p.A$anon1", "a"), ("p.A$anon2", "b"), ("p.A", "run"),
    ]


def test_member_types_own_their_methods():
    classes, methods = parse(
        """\
        package p;
        public class Outer {
            int top() { return 0; }
            static class Inner {
                int depth() { return 1; }
            }
            interface Visitor {
                void done();
                default String visit(int x) { return "v"; }
            }
            int after() { return 2; }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["p.Outer", "p.Outer.Inner", "p.Outer.Visitor"]
    assert [(m.class_name, m.method_name) for m in methods] == [
        ("p.Outer", "top"), ("p.Outer.Inner", "depth"), ("p.Outer.Visitor", "visit"), ("p.Outer", "after"),
    ]


def test_record_method_is_extracted_but_not_its_compact_constructor():
    classes, methods = parse(
        """\
        package p;
        public record Point(int x, int y) {
            public Point {
                if (x < 0) throw new IllegalArgumentException();
            }
            public int sum(int z) { return x + y + z; }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["p.Point"]
    assert [(m.class_name, m.method_name, m.return_type, m.params) for m in methods] == [
        ("p.Point", "sum", "int", (("int", "z"),)),
    ]


def test_annotation_type_declares_no_methods():
    classes, methods = parse(
        """\
        package p;
        /** Marks things. */
        public @interface Marker {
            String value() default "";
            int weight() default 1;
            int[] ids() default {};
            int[] some() default {1, 2};
            String[] names() default {"a", "b"};
        }
        """
    )
    assert [(c.qualified_name, c.class_doc) for c in classes] == [("p.Marker", "Marks things.")]
    assert methods == []


def test_doc_comment_before_a_top_level_annotation_is_the_class_doc():
    classes, methods = parse(
        """\
        package p;
        /** Class doc here. */
        @Deprecated
        @SuppressWarnings({"unchecked"})
        public class A {
            public int f() { return 1; }
        }
        /** Marker doc. */
        @Retention(RetentionPolicy.RUNTIME) public @interface M { }
        """
    )
    assert [(c.qualified_name, c.class_doc) for c in classes] == [
        ("p.A", "Class doc here."), ("p.M", "Marker doc."),
    ]
    assert [(m.class_name, m.method_name) for m in methods] == [("p.A", "f")]


def test_annotated_top_level_type():
    classes, methods = parse(
        """\
        package p;
        import java.util.List;
        @Deprecated
        @SuppressWarnings({"unchecked", "rawtypes"})
        public final class A {
            public int f() { return 1; }
        }
        """
    )
    assert [c.qualified_name for c in classes] == ["p.A"]
    assert [(m.class_name, m.method_name) for m in methods] == [("p.A", "f")]


def test_locals_of_one_declaration_and_a_multi_catch_parameter():
    _, methods = parse(
        """\
        package p;
        public class A {
            public int f() {
                int a = 1, b[];
                try {
                    a++;
                } catch (IllegalStateException | java.io.UncheckedIOException e) {
                    b = null;
                }
                return a;
            }
        }
        """
    )
    (m,) = methods
    # each name declared gets the declaration's type as written before the first name
    assert m.local_vars == (
        ("int", "a"), ("int", "b"), ("IllegalStateException|java.io.UncheckedIOException", "e"),
    )


def test_deep_nesting_is_walked_or_skipped(tmp_path):
    """3,000 nested blocks parse; 400 nested classes and 1,000 anonymous
    classes nested in constructor arguments, which the parser recurses
    into, fail like any unparseable file instead of raising."""
    (tmp_path / "Blocks.java").write_text(
        "package p;\nclass Blocks {\n  int f() {\n" + "{" * 3000 + "int deep = 1;" + "}" * 3000 + "\n  return 0; }\n}\n"
    )
    (tmp_path / "Classes.java").write_text(
        "package p;\n" + "".join(f"class C{i} {{ " for i in range(400)) + "int g() { return 0; }" + " }" * 400 + "\n"
    )
    (tmp_path / "Anon.java").write_text(
        "package p;\nclass Anon { Object h() { return " + "new X(" * 1000 + ") {}" * 1000 + "; } }\n"
    )
    snap = extract(tmp_path)
    assert snap.summary.files_parsed == 1
    assert [path for path, _ in snap.summary.failed_files] == ["Anon.java", "Classes.java"]
    assert all("recursion" in reason for _, reason in snap.summary.failed_files)
    (m,) = snap.records
    assert (m.class_name, m.method_name, m.local_vars) == ("p.Blocks", "f", (("int", "deep"),))
    assert (m.span.start_line, m.span.end_line) == (3, 5)


def test_relative_root_is_stored_absolute(tmp_path, monkeypatch):
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "A.java").write_text("package p;\nclass A { int f() { return 1; } }\n")
    monkeypatch.chdir(tmp_path)
    snap = extract("tree")
    assert (snap.name, snap.root_path) == ("tree", str(tmp_path / "tree"))
    assert snap.root_prefix == f"{tmp_path}/tree/"


# -- the crash contract under token-level mutants ----------------------------

FIXTURE_JAVA = sorted(Path(__file__).parent.glob("fixtures/toy/**/*.java"))
INSERTS = ["(", ")", "<", ">", "{", "}", "@A", ",", "final", "[]", ".", "new X() {"]


@st.composite
def java_mutants(draw):
    """A fixture source with 1-3 tokens deleted, duplicated, preceded by an
    inserted fragment, or cut off there with everything after them."""
    source = draw(st.sampled_from(FIXTURE_JAVA)).read_text()
    tokens = lex(source)
    edit = st.tuples(
        st.integers(0, len(tokens) - 1),
        st.sampled_from(["delete", "duplicate", "insert", "truncate"]),
        st.sampled_from(INSERTS),
    )
    for k, op, insert in sorted(draw(st.lists(edit, min_size=1, max_size=3)), reverse=True):
        t = tokens[k]
        if op == "delete":
            source = source[:t.start] + source[t.end:]
        elif op == "duplicate":
            source = source[:t.end] + " " + source[t.start:t.end] + source[t.end:]
        elif op == "insert":
            source = source[:t.start] + insert + " " + source[t.start:]
        else:
            source = source[:t.start]
    return source


@settings(max_examples=300, deadline=None)
@given(java_mutants())
def test_mutated_source_parses_or_raises_a_java_error(source):
    try:
        parse_java_file(source, "p/A.java", False)
    except (JavaLexError, JavaParseError):
        pass
