#!/usr/bin/env bash
# Snapshot cold-boot smoke for CI.
#
# End-to-end through the real CLI and the real on-disk formats: build a
# dictionary log with `pdm dict add/commit`, `pdm dict compact` to emit
# the PDMS v2 built-matcher sidecar, then prove a fresh process boots
# from it without a rebuild — `pdm match --dict-log` must report
# "cold-loaded" and still find every occurrence. `pdm snap inspect`
# validates both sidecar and log framing, and a corrupted sidecar must
# fail inspection while `pdm match` falls back to a rebuild with
# identical output. A second leg does the same for `pdm build`: its
# output is a PDMS v2 snapshot that `match --index` loads with the same
# output as `match --dict`, and a flipped byte fails both inspection and
# `match --index`.
#
# Usage: scripts/snap_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release --bin pdm
bin=target/release/pdm

log="$tmp/dict.pdml"
snap="$tmp/dict.pdml.snap"
printf 'ushers' >"$tmp/text.bin"

for p in he she hers; do
    "$bin" dict add --pattern "$p" --log "$log" >/dev/null
done
"$bin" dict commit --log "$log" >/dev/null

# Before compaction there is no sidecar: boot must rebuild and say why.
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/warm.out"
grep -q "rebuilt (no snapshot sidecar)" "$tmp/warm.out"

"$bin" dict compact --log "$log" >/dev/null
test -f "$snap"

# After compaction: cold boot from the sidecar, same matches.
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/cold.out"
grep -q "cold-loaded from" "$tmp/cold.out"
grep -q "# 3 occurrences" "$tmp/cold.out"
diff <(grep -v '^#' "$tmp/warm.out") <(grep -v '^#' "$tmp/cold.out")

# Both sidecar formats pass deep inspection.
"$bin" snap inspect --file "$snap" | tee "$tmp/inspect.out"
grep -q "PDMS v2" "$tmp/inspect.out"
grep -q "crc: OK" "$tmp/inspect.out"
"$bin" snap inspect --file "$log" | grep -q "tail: clean"

# Corruption: inspect fails loudly, match falls back to a correct rebuild.
python3 - "$snap" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, 'rb').read())
b[len(b) // 2] ^= 0x10
open(p, 'wb').write(b)
EOF
if "$bin" snap inspect --file "$snap" >/dev/null 2>&1; then
    echo "corrupt sidecar passed inspection" >&2
    exit 1
fi
"$bin" match --dict-log "$log" --text "$tmp/text.bin" >"$tmp/corrupt.out"
grep -q "rebuilt (" "$tmp/corrupt.out"
diff <(grep -v '^#' "$tmp/cold.out") <(grep -v '^#' "$tmp/corrupt.out")

# `pdm build` writes the same PDMS v2 snapshot; `match --index` loads it.
printf 'he\nshe\nhers\n' >"$tmp/dict.txt"
index="$tmp/index.snap"
"$bin" build --dict "$tmp/dict.txt" --out "$index" >/dev/null
"$bin" snap inspect --file "$index" | tee "$tmp/index_inspect.out"
grep -q "PDMS v2" "$tmp/index_inspect.out"
grep -q "crc: OK" "$tmp/index_inspect.out"
"$bin" match --dict "$tmp/dict.txt" --text "$tmp/text.bin" --all >"$tmp/by_dict.out"
"$bin" match --index "$index" --text "$tmp/text.bin" --all >"$tmp/by_index.out"
grep -q "# 3 occurrences" "$tmp/by_index.out"
diff <(grep -v '^#' "$tmp/by_dict.out") <(grep -v '^#' "$tmp/by_index.out")

python3 - "$index" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, 'rb').read())
b[len(b) // 2] ^= 0x10
open(p, 'wb').write(b)
EOF
if "$bin" snap inspect --file "$index" >/dev/null 2>&1; then
    echo "corrupt index passed inspection" >&2
    exit 1
fi
if "$bin" match --index "$index" --text "$tmp/text.bin" >"$tmp/bad_index.out" 2>&1; then
    echo "corrupt index loaded" >&2
    exit 1
fi
grep -q "checksum mismatch" "$tmp/bad_index.out"

echo "snap smoke: OK"
