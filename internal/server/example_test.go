package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	convoy "repro"
	"repro/internal/server"
)

// ExampleServer_query walks the whole archive lifecycle: serve, ingest a
// convoy, flush, wait for it to reach the historical archive, and query
// it back by object id — the API a monitoring job would use to ask
// "which convoys contained vehicle 2?" long after the feed is gone.
func ExampleServer_query() {
	dir, err := os.MkdirTemp("", "convoyd-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	srv, err := server.New(server.Config{
		Params:       convoy.Params{M: 2, K: 3, Eps: 5},
		Shards:       2,
		PersistPath:  filepath.Join(dir, "closed.k2cl"),
		PersistEvery: 20 * time.Millisecond,
		ArchiveDir:   filepath.Join(dir, "archive"),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Objects 1 and 2 travel together for ticks 0–3.
	body := `{"snapshots":[
	  {"t":0,"positions":[{"oid":1,"x":0,"y":0},{"oid":2,"x":1,"y":0}]},
	  {"t":1,"positions":[{"oid":1,"x":5,"y":0},{"oid":2,"x":6,"y":0}]},
	  {"t":2,"positions":[{"oid":1,"x":10,"y":0},{"oid":2,"x":11,"y":0}]},
	  {"t":3,"positions":[{"oid":1,"x":15,"y":0},{"oid":2,"x":16,"y":0}]}]}`
	http.Post(ts.URL+"/v1/feeds/harbor/ingest", "application/json", bytes.NewBufferString(body))
	http.Post(ts.URL+"/v1/feeds/harbor/flush", "application/json", nil)

	// The archive is populated asynchronously from the persist path; poll
	// the query endpoint until the convoy lands.
	type convoyJSON struct {
		Feed  string  `json:"feed"`
		Objs  []int32 `json:"objs"`
		Start int32   `json:"start"`
		End   int32   `json:"end"`
	}
	var page struct {
		Convoys []convoyJSON `json:"convoys"`
	}
	for deadline := time.Now().Add(10 * time.Second); len(page.Convoys) == 0; {
		if time.Now().After(deadline) {
			fmt.Println("timed out")
			return
		}
		resp, err := http.Get(ts.URL + "/v1/query/object?oid=2&min_dur=4")
		if err != nil {
			fmt.Println(err)
			return
		}
		json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	c := page.Convoys[0]
	fmt.Printf("feed=%s objs=%v ticks=[%d,%d]\n", c.Feed, c.Objs, c.Start, c.End)
	// Output:
	// feed=harbor objs=[1 2] ticks=[0,3]
}
