#!/usr/bin/env bash
# Fail on dead intra-repo links in the top-level docs.
#
# Two classes of reference are checked, in README.md, DESIGN.md,
# ARCHITECTURE.md, and EXPERIMENTS.md:
#
#   1. Markdown links `[text](target)` whose target is a relative path
#      (external http(s):// links are skipped). An #anchor — trailing on
#      a relative .md path, or a bare same-document `#fragment` — must
#      additionally match a heading in the target file, using GitHub's
#      anchor derivation (lowercase, punctuation stripped, spaces to
#      hyphens), so links to removed or renamed DESIGN.md sections fail
#      instead of silently pointing at the top of the file.
#   2. Backtick-quoted repo paths like `crates/serve/src/engine/mod.rs` or
#      `DESIGN.md` — only extensions .md/.rs/.sh/.toml are checked, so
#      gitignored artifacts (e.g. results/*.json trace dumps) and shell
#      snippets don't false-positive.
#
# Exits non-zero listing every dead link. Run from anywhere; paths are
# resolved against the repo root.

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
docs=(README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md)
dead=0

# Every GitHub-style anchor a markdown file's headings generate:
# lowercase, drop everything but alphanumerics/spaces/hyphens/
# underscores, then spaces become hyphens.
anchors_of() {
    sed -n 's/^#\{1,6\} \{1,\}//p' "$1" |
        tr '[:upper:]' '[:lower:]' |
        sed 's/[^a-z0-9 _-]//g; s/ /-/g'
}

check() {
    local doc="$1" target="$2" kind="$3"
    # Strip a trailing #anchor, if any; a bare "#fragment" points back
    # into the current doc.
    local path="${target%%#*}"
    local file="${path:-$doc}"
    if [ ! -e "$root/$file" ]; then
        echo "DEAD $kind link in $doc: $target"
        dead=$((dead + 1))
        return 0
    fi
    # Anchored link into a markdown file: the fragment must match a
    # heading's derived anchor, or the section it named is gone.
    case "$file" in
    *.md)
        case "$target" in
        *'#'*)
            local anchor="${target#*#}"
            if ! anchors_of "$root/$file" | grep -qxF "$anchor"; then
                echo "DEAD anchor in $doc: $target (no matching heading in $file)"
                dead=$((dead + 1))
            fi
            ;;
        esac
        ;;
    esac
}

for doc in "${docs[@]}"; do
    if [ ! -f "$root/$doc" ]; then
        echo "DEAD doc: $doc (listed in check_doc_links.sh but missing)"
        dead=$((dead + 1))
        continue
    fi

    # 1. Markdown relative links (and same-document anchors).
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        check "$doc" "$target" "markdown"
    done < <(grep -o '\[[^]]*\]([^)]*)' "$root/$doc" | sed 's/.*](\([^)]*\))/\1/')

    # 2. Backtick-quoted repo paths with checked extensions.
    while IFS= read -r target; do
        check "$doc" "$target" "backtick"
    done < <(grep -o '`[A-Za-z0-9_./-]*\.\(md\|rs\|sh\|toml\)`' "$root/$doc" |
        tr -d '`' | sort -u)
done

if [ "$dead" -gt 0 ]; then
    echo "check_doc_links: $dead dead link(s)"
    exit 1
fi
echo "check_doc_links: OK (${#docs[@]} docs)"
