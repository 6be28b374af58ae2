#include "diagnostic.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/logging.hh"

namespace aurora::analyze
{

const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

std::string
Diagnostic::toString() const
{
    std::ostringstream out;
    out << id << ' ' << severityName(severity);
    if (job >= 0)
        out << " [job " << job << ']';
    if (!field.empty()) {
        out << ' ' << field;
        if (!value.empty())
            out << '=' << value;
    }
    out << ": " << message;
    if (!hint.empty())
        out << " (fix: " << hint << ')';
    return out.str();
}

const std::vector<DiagnosticInfo> &
catalog()
{
    // Severity and hint live here, not at the emission site, so every
    // emitter of an ID agrees with `aurora_lint explain` and with
    // docs/analysis.md. Keep the three in sync when adding an entry.
    static const std::vector<DiagnosticInfo> entries = {
        // ---- configuration errors (validate()-class defects) ----
        {"AUR001", Severity::Error, "reorder buffer has zero entries",
         "Table 1 sizes the IPU reorder buffer at 2/6/8 entries; with "
         "zero entries no instruction can ever be tagged for retirement "
         "and the machine is structurally empty.",
         "set rob to at least 1 (Table 1 uses 2/6/8)"},
        {"AUR002", Severity::Error, "LSU has zero MSHRs",
         "Section 2.3 reserves an MSHR for every memory operation "
         "active in the LSU pipeline, hits included; with zero MSHRs "
         "no load or store can ever start.",
         "set mshr to at least 1 (Table 1 uses 1/2/4)"},
        {"AUR003", Severity::Error, "cache line sizes disagree",
         "The I-cache, D-cache, prefetch stream buffers and write "
         "cache all exchange whole lines over the BIU (Section 2); a "
         "line handed from one unit to another must mean the same "
         "bytes in all of them.",
         "use one line size (the study uses 32 bytes) everywhere"},
        {"AUR004", Severity::Error, "fetch width differs from issue width",
         "Fetch and issue are lock-stepped through aligned EVEN/ODD "
         "pairs (Section 2.1, Figure 3); a mismatch either starves or "
         "overruns the fetch buffer every cycle.",
         "set fetch equal to issue (the parser's issue= key does both)"},
        {"AUR005", Severity::Error, "an FPU decoupling queue has zero entries",
         "Section 3 decouples the FPU from the IPU precisely through "
         "the instruction/load/store queues; a zero-entry queue means "
         "no FP instruction, operand or result can ever transfer.",
         "give every FP queue at least one entry (Fig 9 rec: 5/2/3)"},
        {"AUR006", Severity::Error, "provably-safe fraction outside [0,1]",
         "Section 3.1's exponent-examination hardware proves a "
         "*fraction* of FP operations exception-free; the knob is a "
         "probability and anything outside [0,1] is meaningless.",
         "clamp fp_safe_frac into [0,1] (the study measured 0.70)"},
        {"AUR007", Severity::Error, "FP unit latency outside the result-bus window",
         "Result buses are reserved at issue time in a fixed-size "
         "scheduling window; a latency of zero or beyond the window "
         "can never be granted a writeback slot.",
         "keep each FP latency in [1,255]; Fig 9 sweeps 1-5 and 10-30"},
        {"AUR008", Severity::Error, "issue width is not 1 or 2",
         "The study's machine issues one EVEN/ODD pair per cycle at "
         "most (Section 2.1); widths beyond 2 have no fetch, decode or "
         "scoreboard support in the model.",
         "set issue to 1 or 2"},
        {"AUR009", Severity::Error, "retire width below issue width",
         "Retirement must keep up with issue on average or the "
         "reorder buffer leaks occupancy until the machine stalls "
         "permanently.",
         "set retire >= issue"},
        {"AUR010", Severity::Error, "structural deadlock: no drain path",
         "A finite resource holds work but every path by which that "
         "work could leave passes through a zero-capacity resource, so "
         "once it fills the machine wedges; only the forward-progress "
         "watchdog would end such a run (at full cycle-budget cost).",
         "give the named choke-point resource nonzero capacity"},
        {"AUR011", Severity::Error, "prefetch enabled with zero stream buffers",
         "Section 2.2's prefetch unit is a pool of stream buffers; "
         "enabling it with an empty pool makes every miss probe a "
         "unit that can never hold a line.",
         "disable prefetch (pf=off) or give it buffers (Table 1: 2/4/8)"},

        // ---- configuration warnings (sizing relationships) ----
        {"AUR012", Severity::Warning, "FPU reorder buffer shallower than deepest pipelined unit",
         "A pipelined unit of latency L can hold L results in flight; "
         "with fewer FPU ROB entries than L the ROB, not the unit, "
         "bounds FP concurrency (Figure 9c shows returns flatten only "
         "at ~6 entries against the 5-cycle multiplier).",
         "size fp_rob to at least the largest pipelined FP latency"},
        {"AUR013", Severity::Warning, "FP instruction queue shallower than deepest pipelined unit",
         "The decoupling instruction queue must cover the FP pipeline "
         "depth or the IPU stalls on transfer before the first result "
         "returns (Figure 9a flattens at ~5 entries).",
         "size fp_instq to at least the largest pipelined FP latency"},
        {"AUR014", Severity::Warning, "FP load queue narrower than issue width",
         "Both issue slots can carry FP loads in the same cycle "
         "(Section 3); a load-data queue narrower than the issue width "
         "back-pressures the IPU on the first such pair.",
         "size fp_loadq to at least the issue width (Fig 9b rec: 2)"},
        {"AUR015", Severity::Warning, "write cache smaller than issue width",
         "Both issue slots can carry stores in the same cycle; fewer "
         "write-cache lines than the issue width forces an eviction "
         "per cycle in the worst case, serializing on the BIU "
         "(Table 5's hit rates assume 2-8 lines).",
         "size wc to at least the issue width (Table 1: 2/4/8)"},
        {"AUR016", Severity::Warning, "prefetch depth exceeds BIU queue depth",
         "A single stream buffer topping itself up can then fill the "
         "whole BIU transmit queue, starving demand misses — the "
         "Section 5.2 small-model pathology taken to its limit.",
         "keep pf_depth <= biu_queue"},
        {"AUR017", Severity::Warning, "aggregate prefetch capacity swamps the BIU",
         "All stream buffers prefetch through one bus; aggregate "
         "capacity (buffers x depth) beyond twice the BIU queue keeps "
         "the bus saturated with speculative lines that demand misses "
         "must queue behind (Section 5.2).",
         "reduce pf/pf_depth or deepen biu_queue"},
        {"AUR018", Severity::Warning, "reorder buffer cannot cover the D-cache hit latency",
         "Loads hold their ROB tag for the full pipelined hit latency "
         "(Section 2.3); with rob x retire below that latency, back-"
         "to-back loads drain the ROB before the first hit returns — "
         "the small model's dominant stall in Figure 4.",
         "size rob x retire to at least dcache_lat"},
        {"AUR019", Severity::Error, "write cache has no lines or a non-power-of-two page",
         "Stores retire through the coalescing write cache (Section "
         "2.3), so it needs at least one line; its micro-TLB compares "
         "page fields of the address, which exist only for a page size "
         "that is a power of two.",
         "set wc_lines to at least 1 (Table 1: 2/4/8) and wc_page to a "
         "power of two (4096)"},
        {"AUR020", Severity::Error, "ALU latency below one cycle",
         "Results cannot feed dependents before they exist; even the "
         "fully-forwarded four-stage Aurora III pipelines (Section "
         "2.1) deliver an ALU result one cycle after issue.",
         "set alu_lat to at least 1"},
        {"AUR022", Severity::Warning, "victim cache and prefetch both enabled",
         "The Aurora III shipped stream buffers *instead of* a victim "
         "cache (Section 2.2); enabling both double-charges RBE for "
         "overlapping miss coverage and is outside the study's "
         "calibrated design space.",
         "disable one of victim/pf (the study's machines use pf only)"},
        {"AUR023", Severity::Warning, "bus collisions modeled with zero penalty",
         "The Section 2 collision-based bus protocol costs a retry "
         "when transmit meets an inbound reply; modeling collisions "
         "with a zero-cycle penalty silently reduces to the collision-"
         "free model while appearing to be the fidelity ablation.",
         "set collision_penalty >= 1 or turn collisions off"},
        {"AUR024", Severity::Warning, "precise FP exceptions with zero provably-safe fraction",
         "Precise mode drains the FPU before every transfer that is "
         "not provably safe (Section 3.1); with fp_safe_frac=0 *every* "
         "FP instruction serializes — the worst case of Figure 10, "
         "usually a mis-set knob rather than an intended experiment.",
         "raise fp_safe_frac (measured: 0.70) or use imprecise mode"},

        // ---- RBE budget ----
        {"AUR030", Severity::Error, "configuration exceeds the RBE area budget",
         "The whole study trades performance against implementation "
         "area in register-bit-equivalents (Section 4.2, Table 2); a "
         "configuration over the stated budget is not buildable in "
         "the die area the comparison assumes.",
         "shrink the listed structures or raise --budget"},
        {"AUR031", Severity::Warning, "configuration within 5% of the RBE area budget",
         "Area estimates carry error (Table 2 prices come from layout "
         "of similar structures); a configuration this close to the "
         "budget may not survive implementation.",
         "leave headroom or confirm the area estimate"},

        // ---- analytic-model advisories (model.cc / explore.cc) ----
        // All Warning by design: the bound model predicts, the
        // simulator decides. An advisory must never fail a lint run
        // or a sweep launch.
        {"AUR040", Severity::Warning, "predicted binding bottleneck",
         "The Little's-law bottleneck model (docs/model.md) computed "
         "each resource's service demand under the named workload "
         "profile; the resource in `field` attains the minimum "
         "capacity/demand ratio and therefore caps IPC at the value "
         "shown. Spending area anywhere else cannot raise the bound.",
         "enlarge the named resource (or accept the bound)"},
        {"AUR041", Severity::Warning, "over-provisioned structure",
         "A priced structure whose bound exceeds the machine's "
         "overall IPC bound by >= 2x on every profile examined is "
         "area the bottleneck analysis says cannot pay for itself: "
         "Table 2 RBE spent where no workload can use it (the §5 "
         "resource-allocation argument, run in reverse).",
         "shrink the structure and spend the RBE on the binding one"},
        {"AUR042", Severity::Warning, "predicted IPC below the requested floor",
         "The mean bottleneck bound over the profiles examined falls "
         "below the --min-ipc floor. The bound is optimistic by "
         "construction, so the simulator can only do worse — the "
         "configuration cannot meet the target and simulating it "
         "would spend cycles to learn a foregone conclusion.",
         "enlarge the binding resource or lower --min-ipc"},
        {"AUR043", Severity::Warning, "dominated grid point",
         "Another configuration in the same grid costs no more RBE "
         "and has a strictly higher (or equal-cost higher) predicted "
         "bound: on the model's evidence this point cannot sit on "
         "the IPC-vs-area Pareto frontier, and a guided search "
         "(ROADMAP item 4) should simulate the dominating point "
         "instead.",
         "drop the point, or keep it to validate the model's ranking"},

        // ---- trace-file errors ----
        {"AUR101", Severity::Error, "trace header unreadable or bad magic",
         "Aurora traces open with the 16-byte \"AUR3\" header; a file "
         "that cannot supply it is not a trace (or was clobbered at "
         "the start).",
         "regenerate the trace with trace::writeTrace()"},
        {"AUR102", Severity::Error, "unsupported trace format version",
         "The reader understands exactly format version 1; any other "
         "value means a writer/reader mismatch and silently guessing "
         "the layout would fabricate workload data.",
         "regenerate the trace with the current writer"},
        {"AUR103", Severity::Error, "record has an out-of-range op class",
         "Every record's op-class byte selects the issue path (IPU "
         "ALU, load, store, branch, FP add/mul/div/cvt...); a value "
         "outside the enum would issue to no unit.",
         "regenerate the trace; the file was corrupted mid-body"},
        {"AUR104", Severity::Error, "trace body shorter than the header promises",
         "The header's record count is a promise; a shorter body means "
         "a torn write or truncated copy, and replaying a partial "
         "workload would silently skew every statistic.",
         "regenerate or re-copy the trace file"},
        {"AUR105", Severity::Error, "record references a nonexistent register",
         "The machine has 32 integer and 32 FP registers (plus the "
         "no-register sentinel); an index past 31 would address "
         "scoreboard state that does not exist.",
         "regenerate the trace; the file was corrupted mid-body"},
        {"AUR106", Severity::Error, "misaligned or odd-sized memory access",
         "The LSU models naturally-aligned 4- and 8-byte accesses "
         "only (Section 2.3); other shapes would need an unmodeled "
         "alignment network and multi-line splits.",
         "emit naturally-aligned 4/8-byte accesses in the generator"},

        // ---- trace-file warnings ----
        {"AUR107", Severity::Warning, "program-counter discontinuity",
         "Each record's next_pc names its successor's pc; a break "
         "means records were reordered or spliced from different "
         "traces, which invalidates the I-cache locality the front "
         "end models.",
         "regenerate the trace as one continuous stream"},
        {"AUR108", Severity::Warning, "op-class mix disagrees with the declared profile",
         "Workload profiles pin the Table 3 instruction mixes; a "
         "trace whose measured mix strays from its declared profile "
         "yields results attributed to the wrong workload.",
         "check the profile name or regenerate the trace"},
        {"AUR109", Severity::Error, "malformed operands for op class",
         "A load without a destination or an FP arithmetic op with no "
         "FP destination cannot interact with the scoreboard the way "
         "its op class demands; the record is self-contradictory.",
         "regenerate the trace; the generator wrote invalid operands"},
        {"AUR110", Severity::Warning, "excessive undefined register reads",
         "A long trace whose reads are mostly of registers no earlier "
         "record defined looks like shuffled or truncated-then-"
         "spliced input; dependence-driven stalls would be "
         "meaningless on it.",
         "regenerate the trace from a single continuous run"},

        // ---- sweep-service admission and protocol (aurora_serve) ----
        {"AUR201", Severity::Error, "tenant grid quota exceeded",
         "The service bounds how many grids one tenant may have "
         "queued or running at once so a single guided-search client "
         "cannot monopolize the shared worker pool (ROADMAP item 2's "
         "fairness requirement).",
         "wait for an active grid to finish, or raise --quota-grids"},
        {"AUR202", Severity::Error, "tenant job quota exceeded",
         "Per-tenant queued-job budgets keep one enormous grid from "
         "starving every other tenant's small ones; round-robin "
         "scheduling is only fair when no queue is unbounded.",
         "split the grid, or raise --quota-jobs"},
        {"AUR203", Severity::Error, "service overloaded (global queue full)",
         "The submission queue is bounded; past the limit the service "
         "sheds load with a structured rejection instead of buffering "
         "without bound — the client should back off and retry.",
         "retry with backoff, or raise --queue-depth"},
        {"AUR204", Severity::Error, "service draining",
         "A SIGTERM put the daemon in drain mode: running jobs "
         "finish, queued work persists in the spool for the next "
         "instance, and new submissions are refused.",
         "resubmit after the replacement daemon starts"},
        {"AUR205", Severity::Error, "malformed submission",
         "The grid could not be built: empty job list, a job count "
         "past --max-grid-jobs, an unparseable machine spec, or an "
         "unknown profile name.",
         "fix the submission; aurora_submit --help shows the shape"},
        {"AUR206", Severity::Error, "duplicate grid fingerprint",
         "A grid with this fingerprint is already spooled; running "
         "it twice would burn workers to produce bit-identical "
         "results. Re-attach to the existing grid instead.",
         "use aurora_submit --attach <fingerprint>"},
        {"AUR207", Severity::Error, "wire protocol violation",
         "A frame failed its CRC or arrived malformed (bad magic, "
         "implausible length, unknown or out-of-order message type). "
         "The connection is closed; journaled state is unaffected.",
         "reconnect; check client and server protocol versions"},
        {"AUR208", Severity::Error, "unknown grid fingerprint",
         "Attach/cancel named a fingerprint the spool does not hold "
         "— mistyped, or the grid belongs to a different spool "
         "directory.",
         "list active grids with aurora_submit --status"},

        // ---- distributed shard supervision (aurora_swarm) ----
        {"AUR301", Severity::Error, "shard lease expired",
         "A shard missed its heartbeat deadline — wedged, paused, or "
         "partitioned. The coordinator fences the shard's epoch and "
         "migrates its unfinished jobs to live shards; nothing is "
         "lost and nothing runs twice.",
         "check the shard's log; raise --lease-ms if jobs outrun it"},
        {"AUR302", Severity::Error, "shard process exited unexpectedly",
         "A shard's connection dropped mid-grid (crash, SIGKILL, or "
         "OOM kill). Its committed jobs are already durable in the "
         "coordinator's journal; its unfinished jobs migrate to the "
         "remaining shards.",
         "inspect the shard's exit status; the sweep completes anyway"},
        {"AUR303", Severity::Error, "shard heartbeats lost (partition)",
         "A shard kept working but its heartbeats stopped arriving — "
         "the one-way-partition failure. The coordinator cannot tell "
         "a silent shard from a dead one, so the lease fences it and "
         "any results it later offers are refused as stale.",
         "restore connectivity; the shard exits when it sees the fence"},
        {"AUR304", Severity::Warning, "fenced zombie append rejected",
         "A shard whose lease already expired tried to commit a "
         "result under its stale epoch. The fence refused it — the "
         "job either committed elsewhere or will — so the at-most-"
         "once guarantee held. Expected during failover; a flood "
         "means the lease is too short.",
         "none needed; raise --lease-ms if frequent"},
        {"AUR305", Severity::Error, "shard wire protocol violation",
         "A shard connection sent a corrupt frame, an unknown message "
         "type, a bad protocol version, or a result for a job it was "
         "never assigned. The connection is fenced and dropped.",
         "rebuild shard and coordinator from the same revision"},
        {"AUR306", Severity::Error, "shard journal unusable",
         "At merge time a shard's local journal was missing a "
         "committed record, held bytes that disagree with what the "
         "coordinator committed, or failed its CRC mid-file. The "
         "merge refuses to fabricate results.",
         "rerun with --resume; the commit journal replays the grid"},
    };
    return entries;
}

const DiagnosticInfo *
findDiagnostic(std::string_view id)
{
    for (const DiagnosticInfo &info : catalog())
        if (id == info.id)
            return &info;
    return nullptr;
}

namespace
{

/** AURnnn -> nnn; -1 when @p id is not of that shape. */
int
idNumber(std::string_view id)
{
    if (id.size() < 4 || id.substr(0, 3) != "AUR")
        return -1;
    int n = 0;
    for (const char c : id.substr(3)) {
        if (c < '0' || c > '9')
            return -1;
        n = n * 10 + (c - '0');
    }
    return n;
}

/** Classic O(len^2) edit distance — the catalog is tiny. */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            const std::size_t sub = diag + (a[i - 1] != b[j - 1]);
            row[j] = std::min({row[j - 1] + 1, up + 1, sub});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

std::vector<std::string>
nearestDiagnosticIds(std::string_view id, std::size_t count)
{
    // Distance is numeric when the ID is well-formed ("AUR044" ->
    // AUR043 before AUR030), textual otherwise ("AUR04x", "aur10").
    const int number = idNumber(id);
    std::vector<std::pair<std::size_t, std::string>> scored;
    for (const DiagnosticInfo &info : catalog()) {
        std::size_t distance;
        if (number >= 0) {
            const int entry = idNumber(info.id);
            distance = static_cast<std::size_t>(
                entry > number ? entry - number : number - entry);
        } else {
            distance = editDistance(id, info.id);
        }
        scored.emplace_back(distance, info.id);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::string> out;
    for (std::size_t i = 0; i < scored.size() && i < count; ++i)
        out.push_back(scored[i].second);
    return out;
}

Diagnostic
makeDiagnostic(std::string_view id, std::string field, std::string value,
               std::string detail)
{
    const DiagnosticInfo *info = findDiagnostic(id);
    if (info == nullptr)
        AURORA_PANIC("analyzer emitted unknown diagnostic id '",
                     std::string(id), "'");
    Diagnostic d;
    d.id = info->id;
    d.severity = info->severity;
    d.field = std::move(field);
    d.value = std::move(value);
    d.message = detail.empty()
                    ? std::string(info->title)
                    : detail::concat(info->title, ": ", detail);
    d.hint = info->hint;
    return d;
}

bool
hasErrors(const std::vector<Diagnostic> &diagnostics)
{
    return errorCount(diagnostics) > 0;
}

std::size_t
errorCount(const std::vector<Diagnostic> &diagnostics)
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Error)
            ++n;
    return n;
}

std::string
formatDiagnostics(const std::vector<Diagnostic> &diagnostics)
{
    std::string out;
    for (const Diagnostic &d : diagnostics) {
        out += d.toString();
        out += '\n';
    }
    return out;
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::stable_sort(
        diagnostics.begin(), diagnostics.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            if (a.id != b.id)
                return a.id < b.id;
            if (a.job != b.job)
                return a.job < b.job;
            if (a.field != b.field)
                return a.field < b.field;
            return a.value < b.value;
        });
}

namespace
{

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
toJson(const std::vector<Diagnostic> &diagnostics)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &d = diagnostics[i];
        if (i > 0)
            out << ",";
        out << "\n  {\"id\": \"" << d.id << "\", \"severity\": \""
            << severityName(d.severity) << "\", ";
        if (d.job >= 0)
            out << "\"job\": " << d.job << ", ";
        out << "\"field\": \""
            << jsonEscape(d.field) << "\", \"value\": \""
            << jsonEscape(d.value) << "\", \"message\": \""
            << jsonEscape(d.message) << "\", \"hint\": \""
            << jsonEscape(d.hint) << "\"}";
    }
    if (!diagnostics.empty())
        out << "\n";
    out << "]\n";
    return out.str();
}

} // namespace aurora::analyze
