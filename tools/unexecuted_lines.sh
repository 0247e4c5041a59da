#!/bin/sh
# Lists the src/ lines a --coverage build of the drhw library never ran,
# from the .gcda files its runs left behind: one line per file, "missed/
# total path: line numbers", most missed first.
#
# Usage: tools/unexecuted_lines.sh BUILD_DIR SOURCE_ROOT > listing.txt
#
# Writes one gcov report per src/ file (and gcov.log) into the current
# directory. SOURCE_ROOT is the absolute source path the build compiled.
set -eu

find "$1/CMakeFiles/drhw.dir" -name '*.gcda' -print0 |
  xargs -0 gcov --preserve-paths --relative-only \
    --source-prefix "$2" > gcov.log
rm -f $(ls *.gcov | grep -v '^src#')
for f in src#*.gcov; do
  # gcov repeats the lines of a template or inline function once per
  # instantiation, in blocks that open with a dashed rule and a mangled
  # name; only the merged listing above them counts.
  awk -F: -v file="$(basename "$f" .gcov | tr '#' /)" '
    /^-+$/ { rule = 1; next }
    rule { rule = 0; block = /^[^ ].*:$/; if (block) next }
    block { next }
    $1 ~ /#####/ { gsub(/ /, "", $2); missed = missed " " $2; n++ }
    $1 ~ /[0-9]/ || $1 ~ /#####/ { total++ }
    END { printf "%5d/%-5d %s:%s\n", n, total, file, missed }' "$f"
done | sort -rn
