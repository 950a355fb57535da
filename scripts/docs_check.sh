#!/bin/sh
# docs_check.sh — verify that the documentation tree is self-consistent.
#
# Checks, in order:
#   1. Every *.md path mentioned in a Go source file exists (godoc
#      comments point readers at docs; a rename must not strand them).
#   2. Every relative markdown link in README.md and docs/*.md resolves
#      to an existing file (anchors and absolute URLs are skipped).
#   3. Every internal/* package states its paper section (a "§"
#      reference) somewhere in its package documentation.
#   4. Every daemon metric the server emits (server_sched_*,
#      server_queue_*, server_inflight_*, server_tenant_*,
#      server_trace_*, server_uptime_*, wasabi_build_*) is cataloged in
#      docs/OBSERVABILITY.md — the catalog must not drift behind the
#      code.
#   5. Every HTTP endpoint the server registers ("METHOD /path" mux
#      patterns) is documented in docs/SERVICE.md.
#   6. Every structured-log event name the server defines (the ev*
#      constants in internal/server/log.go) is cataloged in
#      docs/OBSERVABILITY.md — likewise the routing-layer events in
#      internal/llm/backends.go.
#   7. Every multi-backend routing metric (llm_backend_*) emitted by
#      internal/llm is cataloged in docs/OBSERVABILITY.md, and the
#      -llm-backends / -llm-hedge-after flags are documented in
#      docs/RESILIENCE.md.
#   8. Every retry idiom the corpus generator emits (the Idiom*
#      constants in internal/corpusgen/idioms.go) is documented in
#      docs/CORPUSGEN.md, and every ground-truth bug class (the Bug
#      constants in internal/apps/meta) appears in docs/CORPUS.md — an
#      undocumented idiom or class fails the gate.
#   9. The per-app composition table in docs/CORPUS.md matches the one
#      computed from the manifests (`studyreport -corpus-table`) line
#      for line — the documented table must not drift from the
#      ground truth.
#  10. Every snapshot-store metric (source_*) emitted by internal/source
#      and every cache metric (cache_*) emitted by internal/cache is
#      cataloged in docs/OBSERVABILITY.md.
#  11. The retry-facts format version (sast.FactsSchema) appears
#      verbatim in docs/ARCHITECTURE.md — a version bump must update
#      the documented format.
#  12. The reverse of 4, 7 and 10: every metric named in the first
#      column of the docs/OBSERVABILITY.md "Metric catalog" tables is
#      emitted by a non-test Go source of the main module — a metric
#      deleted from the code must leave the catalog too. Render-time
#      "_quantile" summaries count as emitted when their histogram is.
#  13. Every -llm-* flag named in README.md or docs/*.md is defined by a
#      flag.* call in cmd/wasabi or cmd/wasabid — a removed flag must
#      leave the docs too.
#  14. Every -flag in a README.md or docs/*.md mention of a binary
#      ("go run ./cmd/<bin> -flag ..." or "cmd/<bin> -flag ...", <bin>
#      a directory under cmd/) is defined by a flag.* call in
#      cmd/<bin> — a mention ends at a backtick or a shell operator, and
#      every -word token up to there counts as a flag of <bin>.
#
# Exits non-zero listing every violation; run via `make docs-check`.
set -u
cd "$(dirname "$0")/.."

fail=0
err() {
	echo "docs-check: $*" >&2
	fail=1
}

# 1. .md paths referenced from Go sources must exist (relative to repo root).
for src in $(grep -rlE '[A-Za-z0-9_./-]+\.md' --include='*.go' .); do
	for ref in $(grep -hoE '[A-Za-z0-9_./-]+\.md' "$src" | sort -u); do
		[ -f "$ref" ] || err "$src references $ref, which does not exist"
	done
done

# 2. Relative links in README.md and docs/*.md must resolve.
for doc in README.md docs/*.md; do
	[ -f "$doc" ] || continue
	dir=$(dirname "$doc")
	# Extract markdown link targets: ](target)
	for target in $(grep -hoE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' | sort -u); do
		case $target in
		http://* | https://* | mailto:*) continue ;; # external
		'#'*) continue ;;                            # in-page anchor
		esac
		path=${target%%#*} # strip trailing anchor
		[ -n "$path" ] || continue
		[ -e "$dir/$path" ] || err "$doc links to $target, which does not resolve"
	done
done

# 3. Every internal package documents its paper section (§).
for pkgdir in $(find internal -type f -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do
	grep -l '§' "$pkgdir"/*.go >/dev/null 2>&1 ||
		err "package $pkgdir has no paper-section (§) reference in its godoc"
done

# 4. Server daemon metrics must be cataloged in docs/OBSERVABILITY.md.
for metric in $(grep -hoE '"(server_sched|server_queue|server_inflight|server_tenant|server_trace|server_uptime|wasabi_build)[a-z_]*"' internal/server/*.go | tr -d '"' | sort -u); do
	grep -q "$metric" docs/OBSERVABILITY.md ||
		err "metric $metric (internal/server) is not cataloged in docs/OBSERVABILITY.md"
done

# 5. Every registered HTTP endpoint must appear in docs/SERVICE.md
# (pprof endpoints are documented as a family via /debug/pprof/).
for pattern in $(grep -hoE 'HandleFunc\("(GET|POST|PUT|DELETE) [^"]+"' internal/server/*.go | sed -e 's/^HandleFunc("//' -e 's/"$//' -e 's/ /|/' | sort -u); do
	method=${pattern%%|*}
	path=${pattern#*|}
	grep -qF "$path" docs/SERVICE.md ||
		err "endpoint $method $path (internal/server) is not documented in docs/SERVICE.md"
done

# 6. Every structured-log event name must be cataloged in
# docs/OBSERVABILITY.md.
for ev in $(grep -hoE 'ev[A-Za-z]+ += +"[a-z_.]+"' internal/server/log.go internal/llm/backends.go | grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u); do
	grep -qF "$ev" docs/OBSERVABILITY.md ||
		err "log event $ev is not cataloged in docs/OBSERVABILITY.md"
done

# 7. Multi-backend routing metrics and flags must be documented.
for metric in $(grep -hoE '"llm_backend[a-z_]*"' internal/llm/*.go | tr -d '"' | sort -u); do
	grep -q "$metric" docs/OBSERVABILITY.md ||
		err "metric $metric (internal/llm) is not cataloged in docs/OBSERVABILITY.md"
done
for flag in llm-backends llm-hedge-after; do
	grep -q -- "-$flag" docs/RESILIENCE.md ||
		err "flag -$flag is not documented in docs/RESILIENCE.md"
done

# 8. Generator taxonomy: every emitted idiom must be documented in
# docs/CORPUSGEN.md, every bug class in docs/CORPUS.md.
for idiom in $(grep -hoE 'Idiom[A-Za-z]+ += +"[a-z-]+"' internal/corpusgen/idioms.go | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); do
	grep -qF "$idiom" docs/CORPUSGEN.md ||
		err "generator idiom $idiom (internal/corpusgen) is not documented in docs/CORPUSGEN.md"
done
for bug in $(grep -hoE '[A-Za-z]+ Bug += +"[a-z-]+"' internal/apps/meta/meta.go | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); do
	grep -qF "$bug" docs/CORPUS.md ||
		err "bug class $bug (internal/apps/meta) is not documented in docs/CORPUS.md"
done

# 9. The documented per-app composition table must match the manifests.
table=$(go run ./cmd/studyreport -corpus-table 2>/dev/null)
if [ -z "$table" ]; then
	err "studyreport -corpus-table produced no output"
else
	echo "$table" | while IFS= read -r line; do
		[ -n "$line" ] || continue
		grep -qF "$line" docs/CORPUS.md ||
			echo "docs-check: composition-table row not found in docs/CORPUS.md: $line" >&2
	done
	missing=$(echo "$table" | while IFS= read -r line; do
		[ -n "$line" ] || continue
		grep -qF "$line" docs/CORPUS.md || echo x
	done)
	[ -z "$missing" ] || fail=1
fi

# 10. Snapshot-store and cache metrics must be cataloged in
# docs/OBSERVABILITY.md.
for metric in $(grep -hoE '"(source|cache)_[a-z_]+"' internal/source/*.go internal/cache/*.go | grep -v '_test' | tr -d '"' | sort -u); do
	grep -q "$metric" docs/OBSERVABILITY.md ||
		err "metric $metric (internal/source or internal/cache) is not cataloged in docs/OBSERVABILITY.md"
done

# 11. The facts format version must be documented verbatim in
# docs/ARCHITECTURE.md.
facts_schema=$(grep -hoE 'FactsSchema = "[^"]+"' internal/sast/facts.go | grep -oE '"[^"]+"' | tr -d '"')
if [ -z "$facts_schema" ]; then
	err "cannot extract FactsSchema from internal/sast/facts.go"
else
	grep -qF "$facts_schema" docs/ARCHITECTURE.md ||
		err "facts format version $facts_schema (internal/sast) is not documented in docs/ARCHITECTURE.md"
fi

# 12. Every cataloged metric must still be emitted by the code.
gosrc=$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*')
for metric in $(sed -n '/^## Metric catalog/,/^## /p' docs/OBSERVABILITY.md |
	grep -E '^\| `' | cut -d'|' -f2 | grep -oE '`[a-z_]+' | tr -d '`' | sort -u); do
	name=$metric
	case $metric in
	*_quantile)
		grep -qF '"_quantile"' $gosrc || err "metric $metric: no Go source renders _quantile summaries"
		name=${metric%_quantile}
		;;
	esac
	grep -qF "\"$name\"" $gosrc ||
		err "metric $metric is cataloged in docs/OBSERVABILITY.md but no non-test Go source emits it"
done

# 13. Every documented -llm-* flag must be defined by a binary.
defined=$(grep -hoE 'flag\.[A-Za-z]+\("llm-[a-z-]+"' cmd/wasabi/main.go cmd/wasabid/main.go | grep -oE 'llm-[a-z-]+' | sort -u)
for flag in $(grep -hoE '(^|[^A-Za-z0-9_-])-llm-[a-z-]*[a-z]' README.md docs/*.md | grep -oE 'llm-[a-z-]+' | sort -u); do
	echo "$defined" | grep -qx -- "$flag" ||
		err "flag -$flag is named in README.md or docs/*.md but not defined in cmd/wasabi or cmd/wasabid"
done

# 14. Every flag shown on a binary's command line must be defined by it.
flag_drift=$(grep -hoE '(go run \./cmd/|cmd/)[a-z0-9_-]+( [^`|;&<>()]*)?' README.md docs/*.md |
	sed -e 's#^go run \./cmd/##' -e 's#^cmd/##' | sort -u |
	while read -r bin rest; do
		[ -d "cmd/$bin" ] || continue
		echo "$rest" | tr ' \t' '\n\n' | grep -oE '^--?[a-z][a-z0-9-]*' | sed 's/^--*//' |
			while read -r name; do
				grep -qE "flag\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?\"$name\"" cmd/"$bin"/*.go ||
					echo "flag -$name is named after cmd/$bin in README.md or docs/*.md but not defined in cmd/$bin"
			done
	done | sort -u)
if [ -n "$flag_drift" ]; then
	echo "$flag_drift" | sed 's/^/docs-check: /' >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED" >&2
	exit 1
fi
echo "docs-check: OK"
