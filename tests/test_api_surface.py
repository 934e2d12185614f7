import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reads(tree, strings=False):
    """Names a syntax tree reads: names, attributes, imported names and,
    for the benchmark's tracer tables, string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_program_reader():
    # a public helper that only unit tests call certifies nothing
    sources = sorted((ROOT / "src" / "telecert").glob("*.py"))
    statements = [s for p in sources for s in ast.parse(p.read_text()).body]
    outside = _reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= _reads(ast.parse(path.read_text()), strings=True)
    reads = [_reads(s) for s in statements]
    unread = [
        s.name
        for i, s in enumerate(statements)
        if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        and not s.name.startswith("_")
        and s.name not in outside
        and not any(s.name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unread == []
