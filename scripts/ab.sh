#!/usr/bin/env bash
# ABBA pairs of the repository benchmark: one workload, run by this checkout
# and by revision BASE, each side built from its own source by bench/run.sh.
#
#   bash scripts/ab.sh BASE WORKLOAD [PAIRS [SEED [SECONDS [METRIC]]]]
#
# BASE is exported with `git archive` into .ab/<commit>/ (git-ignored; a copy,
# not a worktree, so nothing is registered in .git) and kept for later calls.
# Odd pairs run BASE first, even pairs this checkout first: on a shared host
# the side that always runs second can read several percent apart for no
# reason of its own. Prints every run, the pairs this checkout won (ties count
# for neither), each side's median and quartiles, and whether the claim rule
# holds: nine tenths of the pairs won, and medians further apart than BASE's
# interquartile range.
set -euo pipefail
usage="usage: ab.sh BASE WORKLOAD [PAIRS [SEED [SECONDS [METRIC]]]]"
base=${1:?$usage} w=${2:?$usage}
n=${3:-10} seed=${4:-42} secs=${5:-10} metric=${6:-sim_ops_per_s}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
dir="$root/.ab/$rev"
if [ ! -d "$dir" ]; then
	rm -rf "$dir.tmp" && mkdir -p "$dir.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$dir.tmp"
	mv "$dir.tmp" "$dir"
fi
better=$(awk -v m="\"$metric\"" 'index($0, "\"name\": " m) { f = 1 }
	f && /"better"/ { print (/higher/ ? "higher" : "lower"); exit }' "$root/BENCHMARK.json")
[ -n "$better" ] || { echo "ab.sh: $metric is not in BENCHMARK.json" >&2; exit 2; }

# run SIDE CHECKOUT prints "SIDE VALUE CORRECT FAILED" from the result line.
run() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 2>/dev/null | tail -n 1)
	echo "$1 $(sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")" \
		"$(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' <<<"$line")" "$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")"
}
echo "$w, $metric ($better is better), seed $seed, ${secs}s: base ${rev:0:12} vs this checkout" >&2
for i in $(seq "$n"); do
	if ((i % 2)); then run base "$dir"; run change "$root"; else run change "$root"; run base "$dir"; fi
done | awk -v better="$better" -v n="$n" '
	function q(a, k, p,   h, i) { h = (k - 1) * p + 1; i = int(h); return a[i] + (h - i) * (a[i + (i < k)] - a[i]) }
	function stats(name, v, k,   s, i, j, x) {
		for (i = 1; i <= k; i++) { x = v[i]; for (j = i - 1; j > 0 && s[j] > x; j--) s[j + 1] = s[j]; s[j + 1] = x }
		m[name] = q(s, k, .5); iqr[name] = q(s, k, .75) - q(s, k, .25)
		printf "%-6s median %.6g  quartiles %.6g .. %.6g\n", name, m[name], q(s, k, .25), q(s, k, .75) }
	{ print "run " NR ": " $0; p = int((NR + 1) / 2); v[$1, p] = $2 + 0
	  if ($3 != "true" || $4 != "0") bad++ }
	END {
		for (p = 1; p <= n; p++) {
			b[p] = v["base", p]; c[p] = v["change", p]
			won += better == "higher" ? c[p] > b[p] : c[p] < b[p]
		}
		printf "pairs won by this checkout: %d of %d\n", won, n
		stats("base", b, n); stats("change", c, n)
		gain = better == "higher" ? m["change"] - m["base"] : m["base"] - m["change"]
		printf "median gain %.6g (%+.1f%%) vs base IQR %.6g: claim %s\n", gain, 100 * gain / m["base"], iqr["base"],
			(won >= 0.9 * n && gain > iqr["base"]) ? "holds" : "does not hold"
		if (bad) { printf "%d runs not correct or with failed ops\n", bad; exit 1 }
	}'
