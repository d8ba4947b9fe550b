// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's `go build ./...` and
// `go test ./...`. The module path sits under fbdetect/ so the
// repository's internal packages stay importable through the replace.
module fbdetect/bench

go 1.22

require fbdetect v0.0.0

replace fbdetect => ../
