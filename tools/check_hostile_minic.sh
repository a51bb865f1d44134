#!/bin/sh
# Hostile MiniC is refused with a ParseError (exit 1), never a crash of the
# host (a stack overflow exits 139).  Writes six shapes nested 100 000 deep
# and requires `swsec asm`, and `swsec fuzz --replay` of a repro-v1 record
# holding one of them, to exit 1 with the nesting diagnostic.  The message
# is checked too: under ASan a stack overflow also exits 1.
#
#   tools/check_hostile_minic.sh ./build/tools/swsec
set -eu
swsec=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

python3 -c "n = 100000; print('int main() { return ' + '(' * n + '1' + ')' * n + '; }')" > "$dir/parens.mc"
python3 -c "n = 100000; print('int f(int x) { return x; } int main() { return ' + 'f(' * n + '1' + ')' * n + '; }')" > "$dir/calls.mc"
python3 -c "n = 100000; print('int main() { ' + '{' * n + '}' * n + ' return 0; }')" > "$dir/blocks.mc"
python3 -c "n = 100000; print('int main() { return 1' + '+1' * (n - 1) + '; }')" > "$dir/sum.mc"
python3 -c "n = 100000; print('int main() { int x = 0; if (x) x = 1;' + ' else if (x) x = 1;' * n + ' return x; }')" > "$dir/else-if.mc"
python3 -c "n = 100000; print('int main() { return ' + '-' * n + '1; }')" > "$dir/minus.mc"

for f in "$dir"/*.mc; do
  rc=0
  "$swsec" asm "$f" > /dev/null 2> "$dir/stderr" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q 'nesting deeper than' "$dir/stderr"; then
    echo "$(basename "$f"): swsec asm exited $rc" >&2
    exit 1
  fi
done

printf '%s\n' repro-v1 'seed 1' 'oracle defense' 'config-a none' 'config-b dep' \
  'output-a ' 'output-b ' "source $(cat "$dir/parens.mc")" end > "$dir/deep.repro"
rc=0
"$swsec" fuzz --replay "$dir/deep.repro" > "$dir/stdout" 2>&1 || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q 'nesting deeper than' "$dir/stdout"; then
  echo "deep.repro: swsec fuzz --replay exited $rc" >&2
  exit 1
fi
echo "hostile MiniC: 6 shapes and 1 replay refused with exit 1"
