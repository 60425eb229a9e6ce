#!/usr/bin/env bash
# Reachability guard: no function that only tests call lives in the non-test
# tree.
#
# Builds the four commands and the benchmark harness without inlining, lists
# every non-test function and method declaration of this module (go/ast,
# named the way `go tool nm` names them) and prints those no binary has a
# symbol for, diffed against scripts/unreached_allowlist.txt.
#
#   - -l is needed: without it an inlined function has no symbol of its own
#     and looks unreached.
#   - The check is one-sided. A name it prints is reached by no binary; a
#     name it does not print may still have no caller, since the linker keeps
#     methods that might be called through an interface.
#   - Every allowlisted name is kept on purpose: an interface method no
#     binary happens to call, a test hook of a kernel's build-tagged twin, or
#     an exported helper other packages' tests call. Package main's functions
#     all print as main.*, so a function one binary calls hides a dead one of
#     the same name in another.
#
# A new line is a function only tests reach: delete it, or, if it is kept on
# purpose, add it with `scripts/unreached.sh -update`. A line that
# disappeared was deleted or became reached: -update too.
set -eu
cd "$(dirname "$0")/.."

allowlist=scripts/unreached_allowlist.txt
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

go build -gcflags=all=-l -o "$d/" ./cmd/...
(cd benchmark && go build -gcflags=all=-l -o "$d/benchmark" .)
go tool nm "$d"/taser-* "$d/benchmark" |
    sed -E 's/^([^ ]+:[[:space:]]+)? *[0-9a-f]* [A-Za-z] //' |
    sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/\.abi0$//' | sort -u >"$d/syms"

cat >"$d/decls.go" <<'GO'
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

func main() {
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmark/") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "taser/" + filepath.Dir(path)
		if f.Name.Name == "main" {
			pkg = "main"
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				t, star := fn.Recv.List[0].Type, false
				if s, ok := t.(*ast.StarExpr); ok {
					t, star = s.X, true
				}
				switch g := t.(type) { // a generic receiver
				case *ast.IndexExpr:
					t = g.X
				case *ast.IndexListExpr:
					t = g.X
				}
				recv := t.(*ast.Ident).Name
				if star {
					recv = "(*" + recv + ")"
				}
				name = recv + "." + name
			}
			fmt.Println(pkg + "." + name)
		}
		return nil
	})
}
GO
go run "$d/decls.go" | sort -u | comm -23 - "$d/syms" >"$d/unreached"

case "${1:-}" in
-list)
    cat "$d/unreached"
    exit 0
    ;;
-update)
    cp "$d/unreached" "$allowlist"
    echo "unreached: allowlist regenerated ($(wc -l <"$allowlist") names)"
    exit 0
    ;;
esac

if ! diff -u "$allowlist" "$d/unreached"; then
    echo >&2
    echo "unreached: FAIL — the functions no binary reaches changed." >&2
    echo "Lines prefixed '+' are reached only by tests: delete them, or keep one on purpose with -update;" >&2
    echo "lines prefixed '-' were deleted or are reached now: scripts/unreached.sh -update" >&2
    exit 1
fi
echo "unreached: OK ($(wc -l <"$allowlist") allowlisted names, kept on purpose)"
