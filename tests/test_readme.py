"""README's library quick tour runs, and its commented values hold."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_values_match_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        try:
            expected = ast.literal_eval(comment.partition(":")[0])
        except (SyntaxError, ValueError):
            assert comment == "six interior facets, one boundary facet"
            assert value == ["interior"] * 6 + ["boundary"]
            continue
        assert value == expected and type(value) is type(expected), (
            ast.unparse(node), comment)
        checked.append(expected)
    assert checked == [4, True, 2, True, True, False]
    assert namespace["p"].dim == 4
