#!/bin/sh
# Fail when a value exported by lib/*/*.mli is referenced by no other
# compilation unit (a library, binary, example, benchmark or test), or
# only by units under test/ without a "file value" line in
# .github/test-only-exports.txt; and fail on a line there whose value
# is not reached by tests alone.
# The references are the compiler's own, read from the typed trees:
# run `dune build @check` first.
set -eu
b=_build/default
inc=$(find $b -type d -path '*objs/byte' | sed 's/^/-I /')
refs=$(mktemp)
trap 'rm -f "$refs"' EXIT
for f in $(find $b -path '*objs/byte/*.cmt'); do
  case $f in $b/test/*) unit=test ;; *) unit=prog ;; esac
  ocamlcmt -annot $inc -o - "$f" | awk -v unit=$unit '$1 == "int_ref" {
    for (i = 3; i <= NF; i++)
      if ($i ~ /^"lib\/[a-z_]+\/[a-z0-9_]+\.mli"$/) {
        gsub(/"/, "", $i); print unit, $i ":" $(i + 1); break } }'
done | sort -u > "$refs"
awk 'FILENAME == ARGV[1] { by[$2] = by[$2] $1; next }
  FILENAME == ARGV[2] {
    if ($0 !~ /^(#|$)/) listed[$1 " " $2] = FILENAME ":" FNR; next }
  /^ *(val|external) +([a-z_][A-Za-z0-9_'"'"']*|\([^)]*\)) *:/ {
    at = FILENAME ":" FNR; v = $0
    sub(/^ *(val|external) +/, "", v); sub(/ *:.*/, "", v); gsub(/ /, "", v)
    if (!(at in by)) { print at ": " $0 " (referenced by no other unit)"; n++ }
    else if (by[at] !~ /prog/) {
      if ((FILENAME " " v) in listed) delete listed[FILENAME " " v]
      else { print at ": " $0 " (only tests reference it; not listed)"; n++ } } }
  END {
    for (k in listed) { print listed[k] ": " k " is not reached by tests alone"; n++ }
    if (n) { print n " export check failure(s)"; exit 1 } }' \
  "$refs" .github/test-only-exports.txt lib/*/*.mli
