#!/bin/sh
# Fail when a value exported by lib/*/*.mli is referenced by no other
# compilation unit (a library, binary, example, benchmark or test).
# The references are the compiler's own, read from the typed trees:
# run `dune build @check` first.
set -eu
b=_build/default
inc=$(find $b -type d -path '*objs/byte' | sed 's/^/-I /')
refs=$(mktemp)
trap 'rm -f "$refs"' EXIT
for f in $(find $b -path '*objs/byte/*.cmt'); do
  ocamlcmt -annot $inc -o - "$f"
done | awk '$1 == "int_ref" {
  for (i = 3; i <= NF; i++)
    if ($i ~ /^"lib\/[a-z_]+\/[a-z0-9_]+\.mli"$/) {
      gsub(/"/, "", $i); print $i ":" $(i + 1); break } }' | sort -u > "$refs"
awk 'NR == FNR { seen[$0] = 1; next }
  /^ *(val|external) +([a-z_][A-Za-z0-9_'"'"']*|\([^)]*\)) *:/ {
    if (!((FILENAME ":" FNR) in seen)) { print FILENAME ":" FNR ": " $0; n++ } }
  END { if (n) { print n " exported value(s) referenced by no other unit"; exit 1 } }' \
  "$refs" lib/*/*.mli
