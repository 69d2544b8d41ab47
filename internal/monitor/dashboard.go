package monitor

import "net/http"

// ServeDashboard handles GET /dashboard: a single self-contained HTML
// page, no external assets, that subscribes to /watch via EventSource
// and polls /stats — the in-browser view of the live triage console.
func (m *Monitor) ServeDashboard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

// dashboardHTML is the whole console. Vanilla JS + inline SVG only, so
// it works from a collector on an air-gapped fleet network.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cbi live triage</title>
<style>
  :root { --bg:#11151a; --panel:#1a2026; --fg:#d6dde4; --dim:#7a8691;
          --accent:#5db0f0; --ok:#58c472; --bad:#e06c5a; --warn:#e0b95a; }
  * { box-sizing:border-box; }
  body { margin:0; background:var(--bg); color:var(--fg);
         font:14px/1.5 ui-monospace,SFMono-Regular,Menlo,Consolas,monospace; }
  header { display:flex; align-items:baseline; gap:16px; padding:14px 20px;
           border-bottom:1px solid #2a323a; flex-wrap:wrap; }
  header h1 { font-size:16px; margin:0; font-weight:600; }
  header .badge { padding:2px 10px; border-radius:10px; font-size:12px;
                  background:#333c45; color:var(--dim); }
  header .badge.converged { background:#1f4430; color:var(--ok); }
  header .badge.live { background:#1d3a52; color:var(--accent); }
  main { display:grid; grid-template-columns:2fr 1fr; gap:16px; padding:16px 20px; }
  @media (max-width:900px) { main { grid-template-columns:1fr; } }
  section { background:var(--panel); border:1px solid #2a323a;
            border-radius:6px; padding:12px 14px; }
  section h2 { font-size:12px; margin:0 0 8px; color:var(--dim);
               text-transform:uppercase; letter-spacing:.08em; }
  table { width:100%; border-collapse:collapse; }
  th, td { text-align:left; padding:4px 8px; font-size:13px;
           border-bottom:1px solid #242c34; white-space:nowrap; }
  td.name { white-space:normal; word-break:break-all; color:var(--fg); }
  th { color:var(--dim); font-weight:500; }
  td.num { text-align:right; font-variant-numeric:tabular-nums; }
  tr.entrant td { background:#20303d; }
  .bar { display:inline-block; height:9px; background:var(--accent);
         vertical-align:middle; border-radius:2px; }
  dl { display:grid; grid-template-columns:auto auto; gap:2px 14px; margin:0; }
  dt { color:var(--dim); } dd { margin:0; text-align:right;
       font-variant-numeric:tabular-nums; }
  svg { width:100%; height:64px; display:block; }
  .spark { fill:none; stroke:var(--bad); stroke-width:1.5; }
  .sparkfill { fill:rgba(224,108,90,.15); stroke:none; }
  #log { max-height:180px; overflow-y:auto; font-size:12px; color:var(--dim); }
  #log div { padding:1px 0; }
  #log .ev-converged { color:var(--ok); }
  #log .ev-diverged { color:var(--warn); }
  #log .ev-anomaly { color:var(--bad); }
  #log .ev-recovered { color:var(--ok); }
  #anoms .anom { color:var(--bad); font-size:12px; padding:1px 0; }
  #health.ok { color:var(--ok); } #health.bad { color:var(--bad); }
  footer { padding:8px 20px; color:var(--dim); font-size:12px; }
</style>
</head>
<body>
<header>
  <h1>cbi live triage</h1>
  <span id="conn" class="badge">connecting…</span>
  <span id="conv" class="badge">not converged</span>
  <span class="badge" id="seq">snapshot –</span>
</header>
<main>
  <section style="grid-row:span 2">
    <h2>Top predicates</h2>
    <table>
      <thead><tr><th>#</th><th>Importance</th><th></th><th>Incr</th>
        <th>F</th><th>S</th><th>Predicate</th></tr></thead>
      <tbody id="rows"><tr><td colspan="7">waiting for first snapshot…</td></tr></tbody>
    </table>
  </section>
  <section>
    <h2>Ingest</h2>
    <dl>
      <dt>runs</dt><dd id="runs">–</dd>
      <dt>crashes</dt><dd id="crashes">–</dd>
      <dt>crash rate</dt><dd id="rate">–</dd>
      <dt>ranked predicates</dt><dd id="ranked">–</dd>
      <dt>rank churn</dt><dd id="churn">–</dd>
      <dt>entrants / dropouts</dt><dd id="moves">–</dd>
      <dt>stable streak</dt><dd id="stable">–</dd>
      <dt>snapshot cost</dt><dd id="cost">–</dd>
    </dl>
  </section>
  <section>
    <h2>Crash rate</h2>
    <svg id="sparkline" viewBox="0 0 300 64" preserveAspectRatio="none"></svg>
  </section>
  <section id="quality" style="display:none">
    <h2>Population health</h2>
    <dl>
      <dt>status</dt><dd id="health">–</dd>
      <dt>accept rate</dt><dd id="qaccept">–</dd>
      <dt>rejected / quarantined</dt><dd id="qreject">–</dd>
      <dt>report bytes p50 / p99</dt><dd id="qbytes">–</dd>
      <dt>nonzeros p50 / p99</dt><dd id="qnz">–</dd>
      <dt>sampling</dt><dd id="qsampling">–</dd>
    </dl>
    <div id="anoms"></div>
  </section>
  <section style="grid-column:1 / -1">
    <h2>Events</h2>
    <div id="log"></div>
  </section>
</main>
<footer>GET /rankings?top=K · GET /watch (SSE) · GET /stats · GET /quality · GET /metrics</footer>
<script>
'use strict';
const $ = id => document.getElementById(id);
const rates = [];           // crash-rate history for the sparkline
let prevTop = new Set();

function fmt(x, d) { return x === undefined ? '–' : x.toFixed(d === undefined ? 3 : d); }

function logLine(cls, text) {
  const div = document.createElement('div');
  div.className = cls;
  div.textContent = new Date().toLocaleTimeString() + '  ' + text;
  const log = $('log');
  log.prepend(div);
  while (log.childNodes.length > 200) log.removeChild(log.lastChild);
}

function drawSpark() {
  const svg = $('sparkline');
  if (rates.length < 2) return;
  const w = 300, h = 64, pad = 4;
  const n = rates.length, max = Math.max(...rates, 1e-9);
  const pt = i => [pad + (w - 2*pad) * i / (n - 1),
                   h - pad - (h - 2*pad) * rates[i] / max];
  let line = '', area = 'M' + pt(0)[0] + ',' + (h - pad);
  for (let i = 0; i < n; i++) {
    const [x, y] = pt(i);
    line += (i ? 'L' : 'M') + x.toFixed(1) + ',' + y.toFixed(1);
    area += 'L' + x.toFixed(1) + ',' + y.toFixed(1);
  }
  area += 'L' + pt(n-1)[0].toFixed(1) + ',' + (h - pad) + 'Z';
  svg.innerHTML = '<path class="sparkfill" d="' + area + '"/>' +
                  '<path class="spark" d="' + line + '"/>';
}

function render(s) {
  $('seq').textContent = 'snapshot ' + s.seq;
  $('runs').textContent = s.runs;
  $('crashes').textContent = s.crashes;
  const rate = s.runs ? s.crashes / s.runs : 0;
  $('rate').textContent = (100 * rate).toFixed(2) + '%';
  $('ranked').textContent = s.ranked;
  $('churn').textContent = fmt(s.churn && s.churn.rank_distance);
  $('moves').textContent = s.churn ? s.churn.new_entrants + ' / ' + s.churn.dropouts : '–';
  $('stable').textContent = s.stable;
  $('cost').textContent = (1000 * s.snapshot_seconds).toFixed(1) + ' ms';
  const conv = $('conv');
  conv.textContent = s.converged ? 'converged' : 'not converged';
  conv.className = 'badge' + (s.converged ? ' converged' : '');
  rates.push(rate);
  if (rates.length > 120) rates.shift();
  drawSpark();

  const rows = $('rows');
  rows.innerHTML = '';
  const maxImp = s.top.length ? s.top[0].importance : 1;
  const nowTop = new Set();
  for (const e of s.top) {
    nowTop.add(e.counter);
    const tr = document.createElement('tr');
    if (prevTop.size && !prevTop.has(e.counter)) tr.className = 'entrant';
    const bar = '<span class="bar" style="width:' +
      Math.max(2, 60 * e.importance / (maxImp || 1)).toFixed(0) + 'px"></span>';
    tr.innerHTML =
      '<td class="num">' + e.rank + '</td>' +
      '<td class="num">' + e.importance.toFixed(4) + '</td>' +
      '<td>' + bar + '</td>' +
      '<td class="num">' + e.increase.toFixed(3) + '</td>' +
      '<td class="num">' + e.true_fail + '</td>' +
      '<td class="num">' + e.true_ok + '</td>' +
      '<td class="name"></td>';
    tr.lastChild.textContent = e.name || ('counter ' + e.counter);
    rows.appendChild(tr);
  }
  if (!s.top.length) rows.innerHTML = '<tr><td colspan="7">no ranked predicates yet</td></tr>';
  prevTop = nowTop;
}

const es = new EventSource('watch');
es.onopen = () => { const c = $('conn'); c.textContent = 'live'; c.className = 'badge live'; };
es.onerror = () => { const c = $('conn'); c.textContent = 'reconnecting…'; c.className = 'badge'; };
es.addEventListener('snapshot', ev => render(JSON.parse(ev.data)));
es.addEventListener('converged', ev => {
  const d = JSON.parse(ev.data);
  logLine('ev-converged', 'CONVERGED after ' + d.runs + ' runs, ' +
    d.snapshots + ' snapshots, ' + d.seconds.toFixed(1) + 's' +
    (d.top.length ? ' — #1 ' + (d.top[0].name || 'counter ' + d.top[0].counter) : ''));
});
es.addEventListener('diverged', ev => {
  const d = JSON.parse(ev.data);
  logLine('ev-diverged', 'diverged at snapshot ' + d.seq + ' (' + d.runs + ' runs)');
});
es.addEventListener('anomaly', ev => {
  const a = JSON.parse(ev.data);
  logLine('ev-anomaly', 'ANOMALY ' + a.kind + ' on ' + a.target +
    ' (value ' + a.value.toFixed(2) + ', baseline ' + a.baseline.toFixed(2) + ')');
});
es.addEventListener('recovered', ev => {
  const a = JSON.parse(ev.data);
  logLine('ev-recovered', 'recovered: ' + a.kind + ' on ' + a.target);
});

// Population health: poll /quality (absent unless the collector runs the
// quality engine — the panel stays hidden until the first 200).
function renderQuality(q) {
  $('quality').style.display = '';
  const h = $('health');
  const n = q.anomalies ? q.anomalies.length : 0;
  h.textContent = n ? n + ' active anomal' + (n > 1 ? 'ies' : 'y') : 'healthy';
  h.className = n ? 'bad' : 'ok';
  const acc = q.rates && q.rates['accept'];
  $('qaccept').textContent = acc ?
    acc.last_per_sec.toFixed(1) + '/s (ewma ' + acc.ewma_per_sec.toFixed(1) + '/s)' : '–';
  $('qreject').textContent = q.rejected_total + ' / ' + q.quarantined_total;
  $('qbytes').textContent = q.report_bytes.count ?
    q.report_bytes.p50.toFixed(0) + ' / ' + q.report_bytes.p99.toFixed(0) + ' B' : '–';
  $('qnz').textContent = q.report_nonzeros.count ?
    q.report_nonzeros.p50.toFixed(0) + ' / ' + q.report_nonzeros.p99.toFixed(0) : '–';
  $('qsampling').textContent = q.sampling.verdict +
    (q.sampling.reports ? ' (tv ' + q.sampling.tv_distance.toFixed(3) + ')' : '');
  const anoms = $('anoms');
  anoms.innerHTML = '';
  for (const a of q.anomalies || []) {
    const div = document.createElement('div');
    div.className = 'anom';
    div.textContent = '⚠ ' + a.kind + ' on ' + a.target;
    anoms.appendChild(div);
  }
}
async function pollQuality() {
  try {
    const resp = await fetch('quality');
    if (resp.ok) renderQuality(await resp.json());
  } catch (e) { /* collector without quality engine; leave hidden */ }
}
pollQuality();
setInterval(pollQuality, 2000);
</script>
</body>
</html>
`
