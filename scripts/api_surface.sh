#!/usr/bin/env bash
# Prints the public surface of every library crate in the workspace:
# one line per non-test `pub` item, sorted with `LC_ALL=C`.
#
#   <module path> <kind> <item>
#
# kind is fn, struct, enum, union, type, trait, const, static, mod or
# use. A fn or associated const of an inherent `impl` is named
# `Owner::name`; a re-export gives one line per name it exports. Only
# items spelled `pub` count (not `pub(crate)` and the like), and only
# at module level or in an inherent `impl`: nothing in fn bodies,
# trait bodies or `impl Trait for` blocks. Everything under a
# `#[cfg(test)]` item is skipped, and so are binaries under `src/bin`.
#
# API.txt at the repository root is this script's committed output,
# and CI fails when it is stale: a change that grows or shrinks the
# surface shows as a diff of it. `scripts/api_surface.sh | wc -l` is
# the surface's size.
#
# Usage: scripts/api_surface.sh   (from anywhere in the repository)
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One file's items. Comments are dropped and string and char literals
# emptied first, so braces and semicolons in them count for nothing;
# then a stack of brace contexts tells module level and inherent impls
# from everything else. A file that ends inside a brace, string or
# comment is reported as a parse failure rather than listed wrongly.
read -r -d '' items <<'AWK' || true
function hashes(n,    s) { s = ""; while (n-- > 0) s = s "#"; return s }
function sanitize(line,    out, i, n, c, rest) {
    out = ""; n = length(line); i = 1
    while (i <= n) {
        c = substr(line, i, 1)
        if (blk > 0) {
            if (substr(line, i, 2) == "*/") { blk--; i += 2 }
            else if (substr(line, i, 2) == "/*") { blk++; i += 2 }
            else i++
            continue
        }
        if (instr) {
            if (raw < 0 && c == "\\") { i += 2; continue }
            if (c == "\"" && (raw < 0 || substr(line, i + 1, raw) == hashes(raw))) {
                instr = 0; out = out "\""; i += 1 + (raw < 0 ? 0 : raw); continue
            }
            i++; continue
        }
        rest = substr(line, i)
        if (substr(rest, 1, 2) == "//") break
        if (substr(rest, 1, 2) == "/*") { blk = 1; i += 2; continue }
        if (c == "\"") { instr = 1; raw = -1; out = out "\""; i++; continue }
        if (out !~ /[A-Za-z0-9_]$/ && match(rest, /^b?r#*"/)) {
            instr = 1; raw = RLENGTH - (substr(rest, 1, 1) == "b" ? 3 : 2)
            out = out "\""; i += RLENGTH; continue
        }
        if (c == "'" && (match(rest, /^'\\u\{[0-9A-Fa-f]+\}'/) || match(rest, /^'\\.'/) \
                         || match(rest, /^'[^\\']'/) || match(rest, /^'[\200-\377]+'/))) {
            out = out "' '"; i += RLENGTH; continue
        }
        out = out c; i++
    }
    return out
}
function emit(kind, name) { printf "%s %s %s\n", path[d], kind, name }
function emit_use(text,    prefix, inner, names, k, n) {
    gsub(/[ \t]+/, " ", text)
    sub(/^ ?pub use /, "", text); sub(/;.*/, "", text)
    gsub(/ *\{ */, "{", text); gsub(/ *\} */, "}", text)
    gsub(/ *, */, ",", text); gsub(/ *:: */, "::", text)
    sub(/^ /, "", text); sub(/ $/, "", text)
    if (index(text, "{") == 0) { emit("use", text); return }
    prefix = substr(text, 1, index(text, "{") - 1)
    inner = substr(text, index(text, "{") + 1)
    sub(/}$/, "", inner)
    if (inner ~ /[{}]/) { bad = "nested braces in a pub use"; exit }
    n = split(inner, names, ",")
    for (k = 1; k <= n; k++) if (names[k] != "") emit("use", prefix names[k])
}
function name_after(t, word,    s) {
    match(t, "(^| )" word " ")
    s = substr(t, RSTART + RLENGTH)
    match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
    return substr(s, 1, RLENGTH)
}
function impl_owner(t,    h, depth, k, c) {
    h = t; sub(/^(unsafe )?impl/, "", h)
    if (substr(h, 1, 1) == "<") {
        depth = 0
        for (k = 1; k <= length(h); k++) {
            c = substr(h, k, 1)
            if (c == "<") depth++
            else if (c == ">" && --depth == 0) break
        }
        h = substr(h, k + 1)
    }
    sub(/^ +/, "", h)
    if (h ~ / for /) return ""
    sub(/[ <{].*$/, "", h); sub(/^.*::/, "", h)
    return h
}
BEGIN { d = 0; kind[0] = "mod"; path[0] = base; test[0] = 0; owner[0] = "" }
{
    s = sanitize($0)
    t = s; sub(/^[ \t]+/, "", t); sub(/[ \t]+$/, "", t)
    listed = (kind[d] == "mod" || kind[d] == "impl") && !test[d]
    if (pending == "" && (kind[d] == "mod" || kind[d] == "impl")) {
        vis = "^(pub(\\([^)]*\\))? )?"
        ispub = listed && t ~ /^pub /
        own = kind[d] == "impl" ? owner[d] "::" : ""
        if (t ~ /^#\[cfg\(test\)\]/) pending_test = 1
        else if (t ~ vis "((const|async|unsafe|extern( \"\")?) )*fn [A-Za-z_]") {
            pending = "fn"; if (ispub) emit("fn", own name_after(t, "fn"))
        } else if (t ~ /^(unsafe )?impl[ <]/) {
            pending = "impl"; pending_owner = impl_owner(t)
        } else if (t ~ vis "mod [A-Za-z_]") {
            pending = "mod"; pending_name = name_after(t, "mod")
            if (ispub) emit("mod", pending_name)
        } else if (t ~ vis "(unsafe )?trait [A-Za-z_]") {
            pending = "trait"; if (ispub) emit("trait", name_after(t, "trait"))
        } else if (t ~ vis "(struct|enum|union|type) [A-Za-z_]") {
            w = t; sub(vis, "", w); sub(/ .*/, "", w)
            pending = "type"; if (ispub) emit(w, name_after(t, w))
        } else if (t ~ vis "(const|static)( mut)? [A-Za-z_]") {
            w = t; sub(vis, "", w); sub(/ .*/, "", w)
            pending = "const"; if (ispub) emit(w, own name_after(t, w))
        } else if (t ~ /^pub use /) {
            pending = "use"; usebuf = ""; if (!listed) pending = "skipuse"
        }
    }
    if (pending == "use") usebuf = usebuf " " t
    n = length(s)
    for (i = 1; i <= n; i++) {
        c = substr(s, i, 1)
        if (c == "(" || c == "[") paren++
        else if (c == ")" || c == "]") paren--
        else if (c == ";" && paren == 0) {
            if (pending == "use") emit_use(usebuf)
            pending = ""; pending_test = 0
        } else if (pending == "use" || pending == "skipuse") continue
        else if (c == "{") {
            d++
            kind[d] = pending == "" ? "other" : pending
            owner[d] = pending == "impl" ? pending_owner : ""
            if (kind[d] == "impl" && owner[d] == "") kind[d] = "other"
            path[d] = pending == "mod" ? path[d - 1] "::" pending_name : path[d - 1]
            test[d] = test[d - 1] || pending_test
            pending = ""; pending_test = 0
        } else if (c == "}") {
            if (--d < 0) { bad = "unbalanced }"; exit }
        }
    }
}
END {
    if (bad == "" && (d != 0 || blk || instr)) bad = "file ends inside a brace, string or comment"
    if (bad != "") { printf "api_surface.sh: %s: %s\n", FILENAME, bad > "/dev/stderr"; exit 1 }
}
AWK

for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    [ -f "$dir/src/lib.rs" ] || continue
    crate="$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest" | tr - _)"
    find "$dir/src" -name '*.rs' -not -path "$dir/src/bin/*" | sort | while read -r file; do
        module="${file#"$dir"/src/}"
        module="${module%.rs}"
        module="${module%/mod}"
        [ "$module" = lib ] && module=""
        awk -v base="$crate${module:+::${module//\//::}}" "$items" "$file"
    done
done | sort
