package server

import (
	"os"
	"regexp"
	"sort"
	"testing"
)

// apiDocPath locates docs/API.md from this package's directory.
const apiDocPath = "../../docs/API.md"

// endpointHeadingRe matches the reference's per-endpoint headings:
//
//	### `GET /v1/query/time`
var endpointHeadingRe = regexp.MustCompile("(?m)^### `((?:GET|POST|PUT|DELETE|PATCH) /\\S+)`\\s*$")

// TestRoutesMatchAPIReference diffs the server's registered route table
// against the endpoint headings of docs/API.md, in both directions: every
// served route must be documented, and every documented route must exist.
// This is what keeps the API reference from rotting.
func TestRoutesMatchAPIReference(t *testing.T) {
	data, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", apiDocPath, err)
	}
	documented := map[string]bool{}
	for _, m := range endpointHeadingRe.FindAllStringSubmatch(string(data), -1) {
		if documented[m[1]] {
			t.Errorf("endpoint %q documented twice", m[1])
		}
		documented[m[1]] = true
	}

	srv, err := New(Config{Params: testParams, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	served := map[string]bool{}
	for _, r := range srv.Routes() {
		served[r] = true
	}

	for r := range served {
		if !documented[r] {
			t.Errorf("route %q is served but has no `### `%s`` heading in %s", r, r, apiDocPath)
		}
	}
	for r := range documented {
		if !served[r] {
			t.Errorf("endpoint %q is documented in %s but not served", r, apiDocPath)
		}
	}
	if len(documented) == 0 {
		t.Fatal("no endpoint headings found; did the doc's heading format change?")
	}

	var list []string
	for r := range served {
		list = append(list, r)
	}
	sort.Strings(list)
	t.Logf("verified %d routes: %v", len(list), list)
}

// errorCodeRowRe matches the error-code table rows of docs/API.md:
//
//	| `queue_full` | 429 | shard ingest queue full |
var errorCodeRowRe = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| [0-9]{3} \\|")

// TestErrorCodesDocumented diffs the server's error-code registry against
// the error-code table of docs/API.md, in both directions: every code the
// server can emit must have a table row, and every documented code must be
// registered. Together with writeError's panic on unregistered codes, this
// makes the documented code set exactly the emittable one.
func TestErrorCodesDocumented(t *testing.T) {
	data, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", apiDocPath, err)
	}
	documented := map[string]bool{}
	for _, m := range errorCodeRowRe.FindAllStringSubmatch(string(data), -1) {
		if documented[m[1]] {
			t.Errorf("error code %q documented twice", m[1])
		}
		documented[m[1]] = true
	}

	for code := range errorCodes() {
		if !documented[string(code)] {
			t.Errorf("error code %q is registered but missing from the table in %s", code, apiDocPath)
		}
	}
	for code := range documented {
		if _, ok := errorCodes()[apiCode(code)]; !ok {
			t.Errorf("error code %q is documented in %s but not registered", code, apiDocPath)
		}
	}
	if len(documented) == 0 {
		t.Fatal("no error-code table rows found; did the doc's table format change?")
	}
	t.Logf("verified %d error codes", len(documented))
}
