# Shell functions for the steps of ci.yml's test job (read through BASH_ENV).

# run_pattern PATTERN PKG... runs the tests of the packages that match the
# -run pattern, twice, under the race detector. Every alternation of the
# pattern has to match at least one test there first: a renamed or deleted
# test must fail its step, not drop out of it silently.
run_pattern() {
	local pattern=$1 alt
	shift
	for alt in ${pattern//|/ }; do
		go test -list "$alt" "$@" | grep '^Test' >/dev/null || {
			echo "::error::-run alternation '$alt' matches no test in $*"
			return 1
		}
	done
	go test -race -count=2 -run "$pattern" "$@"
}
