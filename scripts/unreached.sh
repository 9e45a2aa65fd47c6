#!/usr/bin/env bash
# unreached.sh prints the functions and methods of the module's non-main
# packages that no shipped program links: every program under cmd/ and
# examples/, and the benchmark, built with inlining off so that a small
# function still shows as linked where it is called. Generic functions
# appear under their instantiated names (shape types with spaces and
# nested brackets included), which the awk keeps whole and the sed loop
# strips. EXPERIMENTS E26 has the keep rule for every entry.
#
# scripts/unreached.txt is the committed list; CI fails on any difference:
#
#	diff scripts/unreached.txt <(bash scripts/unreached.sh)
#
# After deleting or adding code, run it from anywhere in the repository and
# update the list with what the change explains.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for d in cmd/* examples/*; do go build -gcflags=all=-l -o "$out/bin/$(basename "$d")" "./$d"; done
(cd benchmark && go build -gcflags=all=-l -o "$out/bin/benchmark" .)
for b in "$out"/bin/*; do go tool nm "$b"; done | awk '$2=="T"||$2=="t"{$1=$2=""; print substr($0, 3)}' \
  | grep '^netpart' | grep -v '^netpart/benchmark' \
  | sed -E ':a; s/\[[^][]*\]//g; ta; s/\.func[0-9.]+$//; s/\.gowrap[0-9]+$//' | sort -u > "$out/linked"
grep -rnE --include='*.go' '^func ' . \
  | grep -vE '_test\.go:|^\./(benchmark|cmd|examples|\.[^/]*)/|/testdata/' \
  | awk '{ path=$0; sub(/:.*/, "", path); dir=path; sub(/\/[^\/]*$/, "", dir); sub(/^\./, "netpart", dir)
      line=$0; sub(/^[^:]*:[0-9]*:func /, "", line)
      if (line ~ /^\(/) { recv=substr(line, 2, index(line, ")")-2); line=substr(line, index(line, ")")+2)
        n=split(recv, p, " "); t=p[n]; sub(/\[.*/, "", t); ptr=(t ~ /^\*/); sub(/^\*/, "", t)
        name=line; sub(/[\[(].*/, "", name); print dir "." (ptr ? "(*" t ")" : t) "." name
      } else { name=line; sub(/[\[(].*/, "", name); if (name != "init") print dir "." name } }' \
  | sort -u > "$out/declared"
comm -23 "$out/declared" "$out/linked"
