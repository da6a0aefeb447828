package telemetry

import "net/http"

// DashboardHandler serves the live operator dashboard — a single
// self-contained HTML page (inline CSS/JS, no external dependencies,
// works offline) that subscribes to the /debug/metrics/stream SSE feed
// and renders the registry in real time: a throughput tile (rate of the
// primary runs/requests counter), worker-pool depth, cache hit/coalesce
// rates, shed/cancel counters, live campaign move quantiles, every
// histogram's count, mean and p50/p90/p99/max, and a rate-annotated
// counter table. Mount it at /debug/live on anything that also mounts
// StreamHandler.
func DashboardHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML)) //nolint:errcheck // a failed response write has no recovery
	})
}

// dashboardHTML is the whole dashboard. It is deliberately generic over
// the registry contents — the same page serves cmd/campaign -listen and
// electd — with named tiles lighting up when their metrics exist.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>live metrics</title>
<style>
  :root { --bg:#0e1117; --card:#161b24; --ink:#d7dde6; --dim:#7d8896; --acc:#4aa3ff; --warn:#ff6b6b; --ok:#58c77b; }
  * { box-sizing:border-box; margin:0; }
  body { background:var(--bg); color:var(--ink); font:14px/1.45 ui-monospace,SFMono-Regular,Menlo,monospace; padding:18px; }
  h1 { font-size:16px; font-weight:600; margin-bottom:2px; }
  #sub { color:var(--dim); font-size:12px; margin-bottom:14px; }
  #sub .live { color:var(--ok); } #sub .dead { color:var(--warn); }
  .grid { display:grid; grid-template-columns:repeat(auto-fill,minmax(240px,1fr)); gap:10px; margin-bottom:14px; }
  .card { background:var(--card); border-radius:8px; padding:10px 12px; }
  .card h2 { font-size:11px; font-weight:600; color:var(--dim); text-transform:uppercase; letter-spacing:.06em; margin-bottom:4px; }
  .big { font-size:26px; font-weight:700; }
  .unit { font-size:12px; color:var(--dim); margin-left:4px; }
  .spark { display:block; margin-top:6px; width:100%; height:34px; }
  table { border-collapse:collapse; width:100%; }
  th,td { text-align:left; padding:2px 10px 2px 0; font-size:12px; }
  th { color:var(--dim); font-weight:600; }
  td.num, th.num { text-align:right; }
  .section { margin:16px 0 6px; font-size:12px; color:var(--dim); text-transform:uppercase; letter-spacing:.06em; }
</style>
</head>
<body>
<h1>live metrics</h1>
<div id="sub">connecting&hellip;</div>
<div class="grid" id="tiles"></div>
<div class="section">histograms</div>
<div class="card"><table id="hists"></table></div>
<div class="section">counters</div>
<div class="card"><table id="counters"></table></div>
<div class="section">gauges</div>
<div class="card"><table id="gauges"></table></div>
<script>
"use strict";
var hist = [];               // [{t, snap}] ring of recent snapshots
var MAXHIST = 180;
var events = 0;

function fmt(v) {
  if (Math.abs(v) >= 1e9) return (v/1e9).toFixed(2)+"G";
  if (Math.abs(v) >= 1e6) return (v/1e6).toFixed(2)+"M";
  if (Math.abs(v) >= 1e4) return (v/1e3).toFixed(1)+"k";
  return (Math.round(v*100)/100).toString();
}
function counter(s, n) { return (s.counters && n in s.counters) ? s.counters[n] : null; }
function gauge(s, n)   { return (s.gauges && n in s.gauges) ? s.gauges[n] : null; }

// rate of counter n in 1/s over the last window of up to w snapshots
function rate(n, w) {
  if (hist.length < 2) return null;
  var a = hist[Math.max(0, hist.length - 1 - (w||10))], b = hist[hist.length-1];
  var va = counter(a.snap, n), vb = counter(b.snap, n);
  if (va === null || vb === null) return null;
  var dt = (b.t - a.t) / 1000;
  return dt > 0 ? (vb - va) / dt : 0;
}
function series(get) {
  var out = [];
  for (var i = 1; i < hist.length; i++) {
    var v = get(hist[i], hist[i-1]);
    if (v !== null) out.push(v);
  }
  return out;
}
function spark(vals) {
  if (!vals.length) return "";
  var w = 220, h = 34, max = Math.max.apply(null, vals.concat([1e-9]));
  var pts = vals.map(function (v, i) {
    return (i * w / Math.max(1, vals.length - 1)).toFixed(1) + "," + (h - 2 - (h - 6) * v / max).toFixed(1);
  });
  return '<svg class="spark" viewBox="0 0 ' + w + ' ' + h + '" preserveAspectRatio="none">' +
    '<polyline fill="none" stroke="#4aa3ff" stroke-width="1.5" points="' + pts.join(" ") + '"/></svg>';
}
function tile(title, value, unit, sparkHTML) {
  return '<div class="card"><h2>' + title + '</h2><span class="big">' + value +
    '</span><span class="unit">' + (unit||"") + '</span>' + (sparkHTML||"") + '</div>';
}

function render(s) {
  var tiles = "";
  // Throughput: campaign runs or served requests, whichever is live.
  var prim = counter(s, "campaign_runs_total") !== null ? "campaign_runs_total" : "serve_requests_total";
  var r = rate(prim, 10);
  if (r !== null) {
    var rs = series(function (b, a) {
      var vb = counter(b.snap, prim), va = counter(a.snap, prim);
      return (vb === null || va === null) ? null : Math.max(0, (vb - va) / ((b.t - a.t) / 1000));
    });
    tiles += tile(prim === "campaign_runs_total" ? "run throughput" : "request throughput",
      fmt(r), "/s &middot; " + fmt(counter(s, prim)) + " total", spark(rs));
  }
  // Worker pool depth.
  ["campaign_inflight", "serve_inflight", "serve_queue_depth"].forEach(function (n) {
    var v = gauge(s, n);
    if (v !== null) {
      var gs = series(function (b) { var x = gauge(b.snap, n); return x === null ? null : x; });
      tiles += tile(n.replace(/_/g, " "), fmt(v), "", spark(gs));
    }
  });
  // Cache effectiveness (electd publishes gauges; rates over the stream).
  var ch = gauge(s, "serve_cache_hits"), cc = gauge(s, "serve_cache_coalesced"), cm = gauge(s, "serve_cache_misses");
  if (ch !== null && cm !== null) {
    var tot = ch + (cc||0) + cm;
    tiles += tile("cache hit+coalesce", tot > 0 ? (100*(ch+(cc||0))/tot).toFixed(1) : "0", "% of " + fmt(tot));
  }
  // Live campaign move quantiles from the run-moves histogram.
  var mv = (s.histograms || {})["campaign_run_moves"];
  if (mv && mv.count) {
    tiles += tile("moves p50 / p90 / p99", fmt(mv.p50) + " / " + fmt(mv.p90) + " / " + fmt(mv.p99),
      "of " + fmt(mv.count) + " runs");
  }
  // Shed / canceled / violations.
  [["serve_shed_total","shed"], ["serve_canceled_total","canceled requests"],
   ["campaign_outcome_canceled","canceled runs"], ["campaign_invariant_violations_total","invariant violations"],
   ["serve_slow_requests_total","slow requests"]].forEach(function (p) {
    var v = counter(s, p[0]);
    if (v !== null && v > 0) tiles += tile(p[1], fmt(v), "total");
  });
  document.getElementById("tiles").innerHTML = tiles;

  // Histograms: the sketch summary of each (quantiles within ~3%).
  var ht = "<tr><th>histogram</th><th class=num>count</th><th class=num>mean</th>" +
    "<th class=num>p50</th><th class=num>p90</th><th class=num>p99</th><th class=num>max</th></tr>";
  Object.keys(s.histograms || {}).sort().forEach(function (n) {
    var hg = s.histograms[n];
    if (!hg.count) return;
    ht += "<tr><td>" + n + "</td>" + [hg.count, hg.sum / hg.count, hg.p50, hg.p90, hg.p99, hg.max].map(function (v) {
      return "<td class=num>" + fmt(v) + "</td>";
    }).join("") + "</tr>";
  });
  document.getElementById("hists").innerHTML = ht;

  var ct = "<tr><th>counter</th><th class=num>total</th><th class=num>rate/s</th></tr>";
  Object.keys(s.counters || {}).sort().forEach(function (n) {
    var rr = rate(n, 10);
    ct += "<tr><td>" + n + '</td><td class=num>' + fmt(s.counters[n]) + '</td><td class=num>' +
      (rr === null ? "&mdash;" : fmt(rr)) + "</td></tr>";
  });
  document.getElementById("counters").innerHTML = ct;

  var gt = "<tr><th>gauge</th><th class=num>value</th></tr>";
  Object.keys(s.gauges || {}).sort().forEach(function (n) {
    gt += "<tr><td>" + n + '</td><td class=num>' + fmt(s.gauges[n]) + "</td></tr>";
  });
  document.getElementById("gauges").innerHTML = gt;
}

var es = new EventSource("/debug/metrics/stream");
es.addEventListener("metrics", function (e) {
  events++;
  var snap = JSON.parse(e.data);
  hist.push({ t: Date.now(), snap: snap });
  if (hist.length > MAXHIST) hist.shift();
  document.getElementById("sub").innerHTML =
    '<span class="live">&#9679; live</span> &middot; ' + events + " snapshots &middot; 1s cadence";
  render(snap);
});
es.onerror = function () {
  document.getElementById("sub").innerHTML = '<span class="dead">&#9679; disconnected</span> (retrying)';
};
</script>
</body>
</html>
`
