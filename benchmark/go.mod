// A module of its own, because the benchmark contract wants a compiled
// benchmark to be a package in the benchmark's directory with its own
// build file; `replace` points it at the repository it measures. The path
// is under repro/cmd because this is a command: evslint's nopanic rule
// lets only repro/cmd and repro/examples packages call os.Exit, and any
// path under repro/ may import repro/internal/... . The root module's
// `go build ./... && go test ./...` does not descend into a nested module:
// run `go vet ./... && go test ./...` from this directory.
module repro/cmd/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
