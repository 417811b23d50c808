#!/bin/sh
# Link-time reachability audit: every function defined in src/, out of
# line or in a header, must be linked into at least one non-test binary, or
# be named in tools/reach_audit_allowlist.txt with the reason it may stay.
#
# Usage (from anywhere; takes no flags):
#
#   tools/reach_audit.sh
#
# It builds, in build-reach/ at the repo root, every executable that CMake
# defines under bench/, examples/ and tools/mihn_chaos/ (found by directory,
# so a new bench joins the entry set on its own), plus perfbench_driver
# from perfbench/'s own CMake project. Everything is compiled at -O0 with
# -ffunction-sections and invariant checks on, and linked with
# --gc-sections: a binary then keeps exactly the functions that main() or
# a global constructor references, directly or through other kept code.
# -O0 keeps a call from being inlined away, so a reached function always
# keeps its out-of-line copy. Linkage, unlike coverage, needs no list of
# runs, and it counts paths that a run may not take, such as error paths.
#
# The set of defined functions has two parts: the strong text symbols
# (nm type T) of every libmihn_*.a, and the mihn:: functions (nm type W or
# T) of one generated file that includes every src/**/*.h in sorted order,
# compiled with the same flags plus -fkeep-inline-functions, which emits
# every inline function a header defines. Templates that this file never
# instantiates emit nothing and stay out of scope. The audit compares that
# set against the symbols of the binaries, demangled and with
# constructor/destructor variants folded. It exits 1 if a function is
# linked into none of them and is not allowlisted, or if an allowlist
# entry no longer names such a function (a stale entry), and 0 otherwise.
set -eu
export LC_ALL=C  # One collation for sort and comm.

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-reach"
allowlist="$root/tools/reach_audit_allowlist.txt"
jobs=$(nproc 2>/dev/null || echo 2)

flags="-O0 -ffunction-sections -DMIHN_ENABLE_INVARIANT_CHECKS=1"
configure() {
  # $1 = source dir, $2 = build dir. The build type's own flags are
  # emptied so only $flags decide the code that is emitted.
  cmake -S "$1" -B "$2" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG= \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

configure "$root" "$out/main"
entry_dirs="bench examples tools/mihn_chaos"
for d in $entry_dirs; do
  # Each directory's generated Makefile builds exactly that directory's
  # targets (and the libraries they link).
  make -s -C "$out/main/$d" -j"$jobs" > /dev/null
done
configure "$root/perfbench" "$out/perfbench"
cmake --build "$out/perfbench" -j"$jobs" --target perfbench_driver > /dev/null

bins=$(for d in $entry_dirs; do
         find "$out/main/$d" -maxdepth 1 -type f -perm -u+x
       done; echo "$out/perfbench/perfbench_driver")
nbins=$(echo "$bins" | wc -l)

# Every header, compiled once, for the functions headers define.
headers="$out/all_headers.cc"
(cd "$root" && find src -name '*.h' | sort | sed 's/.*/#include "&"/') > "$headers"
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:FILEPATH=//p' "$out/main/CMakeCache.txt")
"$cxx" -std=c++20 -I"$root" $flags -fkeep-inline-functions \
  -c "$headers" -o "$out/all_headers.o"

# nm -C prints "address type name"; the name may contain spaces.
defined=$(mktemp) linked=$(mktemp) unreached=$(mktemp) listed=$(mktemp)
trap 'rm -f "$defined" "$linked" "$unreached" "$listed"' EXIT
{
  find "$out/main/src" -name 'libmihn_*.a' -exec nm -C --defined-only {} + 2>/dev/null \
    | awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }'
  nm -C --defined-only "$out/all_headers.o" \
    | awk '$2 == "W" || $2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
    | grep '^mihn::'
} | sort -u > "$defined"
echo "$bins" | while read -r b; do nm -C --defined-only "$b"; done \
  | awk '{ $1 = ""; $2 = ""; sub(/^  /, ""); print }' | sort -u > "$linked"
comm -23 "$defined" "$linked" > "$unreached"
grep -v -e '^#' -e '^[[:space:]]*$' "$allowlist" | sort -u > "$listed"

status=0
new=$(comm -23 "$unreached" "$listed")
stale=$(comm -13 "$unreached" "$listed")
if [ -n "$new" ]; then
  echo "reach_audit: src/ functions linked into no non-test binary:"
  echo "$new" | sed 's/^/  /'
  echo "Delete them (with the tests that exist only for them), give them a"
  echo "caller outside tests/, or, if a test needs one as an oracle or an"
  echo "input, allowlist it in tools/reach_audit_allowlist.txt with the reason."
  status=1
fi
if [ -n "$stale" ]; then
  echo "reach_audit: allowlist entries that name no unreached src/ function:"
  echo "$stale" | sed 's/^/  /'
  echo "Remove them from tools/reach_audit_allowlist.txt."
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "reach_audit: $(wc -l < "$defined") src/ functions, $nbins entry binaries," \
       "$(wc -l < "$listed") allowlisted, none unreached"
fi
exit "$status"
