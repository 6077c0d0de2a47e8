// The dashboard's transport: the bus-to-browser SSE bridge and the
// embedded single-page UI.

package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/flow"
	"repro/internal/pubsub"
)

// topFlow is one heavy hitter in a streamed report view.
type topFlow struct {
	Flow  string `json:"flow"`
	Bytes uint64 `json:"bytes"`
	Exact bool   `json:"exact"`
}

// reportView is the trimmed interval report streamed to browsers: the full
// estimate list can run to thousands of flows, the dashboard only shows the
// top K.
type reportView struct {
	Node        string    `json:"node"`
	Interval    int       `json:"interval"`
	Flows       int       `json:"flows"`
	EntriesUsed int       `json:"entries_used"`
	Threshold   uint64    `json:"threshold"`
	Top         []topFlow `json:"top"`
}

// sseEvent is the envelope written to the SSE data field.
type sseEvent struct {
	Seq     uint64 `json:"seq"`
	Payload any    `json:"payload"`
}

// eventName maps a bus topic to the SSE event name browsers listen on.
func eventName(topic string) string {
	switch topic {
	case "reports":
		return "report"
	case "events/compare":
		return "compare"
	case "events/telemetry":
		return "telemetry"
	}
	return "message"
}

// renderPayload trims a bus payload for the browser: reports are cut down
// to their top-K view, everything else (telemetry snapshots, compare
// results) is already compact and JSON-tagged.
func renderPayload(e pubsub.Event, def flow.Definition, topK int) any {
	rm, ok := e.Payload.(reportMsg)
	if !ok {
		return e.Payload
	}
	v := reportView{
		Node:        rm.Node,
		Interval:    rm.Report.Interval,
		Flows:       len(rm.Report.Estimates),
		EntriesUsed: rm.Report.EntriesUsed,
		Threshold:   rm.Report.Threshold,
	}
	// Reports are sorted descending by bytes, so the top K is the prefix.
	for _, est := range rm.Report.Estimates[:min(topK, len(rm.Report.Estimates))] {
		v.Top = append(v.Top, topFlow{Flow: def.Format(est.Key), Bytes: est.Bytes, Exact: est.Exact})
	}
	return v
}

// serveEvents bridges the bus to one browser: every subscriber gets its own
// bounded queue, so a stalled tab loses its oldest events instead of
// stalling the bus (let alone the measurement path).
func serveEvents(bus *pubsub.Bus, def flow.Definition, topK int) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sub := bus.Subscribe(0)
		defer sub.Cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case <-req.Context().Done():
				return
			case e, ok := <-sub.C:
				if !ok {
					return
				}
				data, err := json.Marshal(sseEvent{Seq: e.Seq, Payload: renderPayload(e, def, topK)})
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", eventName(e.Topic), data)
				fl.Flush()
			}
		}
	}
}

// serveIndex serves the embedded dashboard page.
func serveIndex(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML) //nolint:errcheck // best-effort response
}

// indexHTML is the whole dashboard: a static page subscribing to /events.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>traffic: live heavy hitters</title>
<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 1.5em; background: #111; color: #ddd; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 0 0 .4em; color: #9cf; }
table { border-collapse: collapse; width: 100%; }
td, th { padding: 2px 8px; text-align: left; border-bottom: 1px solid #333; }
th { color: #888; font-weight: normal; }
td.n { text-align: right; font-variant-numeric: tabular-nums; }
.exact { color: #6d6; }
#boards { display: flex; gap: 2em; flex-wrap: wrap; }
.board { flex: 1 1 24em; background: #1a1a1a; border: 1px solid #333; border-radius: 6px; padding: .8em 1em; }
#bar { color: #888; margin-bottom: 1em; }
#compare td:first-child { color: #888; }
</style>
</head>
<body>
<h1>Live heavy hitters</h1>
<div id="bar">connecting&hellip;</div>
<div id="boards"></div>
<div class="board" id="cmpboard" style="display:none; margin-top:1.5em">
<h2>A/B comparison</h2>
<table id="compare"><tbody></tbody></table>
</div>
<script>
const boards = {};
function board(node) {
  if (boards[node]) return boards[node];
  const div = document.createElement('div');
  div.className = 'board';
  div.innerHTML = '<h2>' + node + '</h2><div class="meta"></div>' +
    '<table><thead><tr><th>flow</th><th>bytes</th></tr></thead><tbody></tbody></table>';
  document.getElementById('boards').appendChild(div);
  boards[node] = div;
  return div;
}
const es = new EventSource('/events');
es.onopen = () => { document.getElementById('bar').textContent = 'streaming /events'; };
es.onerror = () => { document.getElementById('bar').textContent = 'disconnected, retrying…'; };
es.addEventListener('report', ev => {
  const r = JSON.parse(ev.data).payload;
  const div = board(r.node);
  div.querySelector('.meta').textContent =
    'interval ' + r.interval + ' — ' + r.flows + ' flows over threshold, ' +
    r.entries_used + ' entries used';
  const tb = div.querySelector('tbody');
  tb.innerHTML = '';
  for (const f of (r.top || [])) {
    const tr = document.createElement('tr');
    tr.innerHTML = '<td>' + f.flow + (f.exact ? ' <span class="exact">exact</span>' : '') +
      '</td><td class="n">' + f.bytes.toLocaleString() + '</td>';
    tb.appendChild(tr);
  }
});
es.addEventListener('compare', ev => {
  const c = JSON.parse(ev.data).payload.payload;
  document.getElementById('cmpboard').style.display = '';
  const tb = document.querySelector('#compare tbody');
  const tr = document.createElement('tr');
  tr.innerHTML = '<td>interval ' + c.interval + '</td><td>top-' + c.k + ' overlap ' +
    (100 * c.top_k_overlap).toFixed(0) + '%</td><td>avg rel diff ' +
    (100 * c.avg_rel_diff).toFixed(2) + '%</td><td>' +
    c.common_flows + ' common flows</td>';
  tb.prepend(tr);
  while (tb.children.length > 12) tb.removeChild(tb.lastChild);
});
es.addEventListener('telemetry', ev => {
  const e = JSON.parse(ev.data).payload;
  const div = boards[e.node];
  if (!div) return;
  const s = e.payload, lanes = (s.lanes || []);
  let pkts = 0, shed = 0;
  for (const ln of lanes) { pkts += ln.packets || 0; shed += (ln.shed_packets || 0); }
  let meta = div.querySelector('.meta').textContent.split(' · ')[0];
  div.querySelector('.meta').textContent = meta + ' · ' + pkts.toLocaleString() +
    ' packets' + (shed ? ', ' + shed + ' shed' : '');
});
</script>
</body>
</html>
`
