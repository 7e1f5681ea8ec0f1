#include "obs/manifest_diff.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace dee::obs
{

bool
LoadedManifest::metric(const std::string &key, double *value) const
{
    for (const auto &[metric_path, v] : metrics) {
        if (metric_path == key) {
            if (value)
                *value = v;
            return true;
        }
    }
    return false;
}

void
flattenNumeric(const Json &node, const std::string &prefix,
               std::vector<std::pair<std::string, double>> *out)
{
    dee_assert(out != nullptr, "flattenNumeric needs an output vector");
    switch (node.kind()) {
      case Json::Kind::Int:
      case Json::Kind::Double:
        out->emplace_back(prefix, node.asDouble());
        break;
      case Json::Kind::Object:
        for (const auto &[key, value] : node.members()) {
            flattenNumeric(value,
                           prefix.empty() ? key : prefix + "." + key,
                           out);
        }
        break;
      case Json::Kind::Array: {
        std::size_t i = 0;
        for (const Json &item : node.items()) {
            const std::string seg = std::to_string(i++);
            flattenNumeric(item,
                           prefix.empty() ? seg : prefix + "." + seg,
                           out);
        }
        break;
      }
      default:
        break; // bools, strings and nulls are not metrics
    }
}

bool
parseManifest(const std::string &text, const std::string &path,
              LoadedManifest *out, std::string *err)
{
    dee_assert(out != nullptr, "parseManifest needs an output struct");
    Json doc;
    std::string parse_err;
    if (!Json::parse(text, &doc, &parse_err)) {
        if (err)
            *err = path + ": " + parse_err;
        return false;
    }
    if (!doc.isObject()) {
        if (err)
            *err = path + ": manifest root is not an object";
        return false;
    }
    const Json *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->kind() != Json::Kind::String) {
        if (err)
            *err = path + ": missing \"schema\" string";
        return false;
    }
    const std::string &s = schema->asString();
    if (s != "dee.run.v1" && s != "dee.run.v2" && s != "dee.run.v3" &&
        s != "dee.run.v4" && s != "dee.run.v5" && s != "dee.run.v6" &&
        s != "dee.run.v7") {
        if (err)
            *err = path + ": unsupported schema '" + s + "'";
        return false;
    }

    out->path = path;
    out->schema = s;
    const Json *tool = doc.find("tool");
    out->tool = tool != nullptr && tool->kind() == Json::Kind::String
                    ? tool->asString()
                    : "?";
    out->metrics.clear();
    // Flatten the sections that carry comparable numbers; "schema",
    // "tool" and "config" are identity, not metrics.
    for (const char *section : {"results", "accounting", "trace",
                                "profile", "host_perf",
                                "static_bounds", "hotspots",
                                "stats"}) {
        if (const Json *sub = doc.find(section))
            flattenNumeric(*sub, section, &out->metrics);
    }
    if (const Json *wall = doc.find("wall_clock_ms");
        wall != nullptr && wall->isNumber())
        out->metrics.emplace_back("wall_clock_ms", wall->asDouble());
    out->doc = std::move(doc);
    return true;
}

bool
loadManifestFile(const std::string &path, LoadedManifest *out,
                 std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = path + ": cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseManifest(buf.str(), path, out, err);
}

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative '*' matcher with single-point backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool
parseWatchList(const std::string &specs, std::vector<WatchSpec> *out,
               std::string *err)
{
    out->clear();
    std::size_t begin = 0;
    while (begin <= specs.size()) {
        std::size_t end = specs.find(',', begin);
        if (end == std::string::npos)
            end = specs.size();
        const std::string text = specs.substr(begin, end - begin);
        begin = end + 1;
        if (text.empty())
            continue;
        WatchSpec spec{text, true};
        const std::string tail =
            text.size() >= 2 ? text.substr(text.size() - 2) : "";
        if (tail == ":+" || tail == ":-") {
            spec.pattern = text.substr(0, text.size() - 2);
            spec.higherIsBetter = tail == ":+";
        }
        if (spec.pattern.empty()) {
            *err = "empty watch pattern in '" + text + "'";
            return false;
        }
        out->push_back(std::move(spec));
    }
    return true;
}

bool
watchRows(const LoadedManifest &baseline, const LoadedManifest &candidate,
          const std::vector<WatchSpec> &watches,
          std::vector<GateRow> *rows, std::string *err)
{
    for (const WatchSpec &watch : watches) {
        const bool matches = std::any_of(
            baseline.metrics.begin(), baseline.metrics.end(),
            [&](const auto &m) { return globMatch(watch.pattern, m.first); });
        if (!matches) {
            *err = "watch pattern '" + watch.pattern +
                   "' matches no metric of " + baseline.path;
            return false;
        }
    }
    for (const auto &[path, base_value] : baseline.metrics) {
        const auto watch = std::find_if(
            watches.begin(), watches.end(),
            [&](const WatchSpec &w) { return globMatch(w.pattern, path); });
        if (watch == watches.end())
            continue;
        GateRow row;
        row.key = path;
        row.baseline = base_value;
        row.higherIsBetter = watch->higherIsBetter;
        if (double value; candidate.metric(path, &value))
            row.candidate = value;
        rows->push_back(std::move(row));
    }
    return true;
}

namespace
{

/**
 * True for "profile.<scope>.branches.<pc>.squashed_slots" paths — the
 * per-branch attribution metrics the profile gate compares. The pc
 * must be the *last* segment before the suffix ("0x12", not
 * "0x12.resolve_latency"): deeper branch fields are not squash totals.
 */
bool
isBranchSquashMetric(const std::string &path)
{
    static const std::string kPrefix = "profile.";
    static const std::string kMark = ".branches.";
    static const std::string kSuffix = ".squashed_slots";
    if (path.compare(0, kPrefix.size(), kPrefix) != 0 ||
        path.size() < kSuffix.size() ||
        path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0)
        return false;
    const std::size_t mark = path.find(kMark);
    if (mark == std::string::npos)
        return false;
    const std::size_t pc_begin = mark + kMark.size();
    const std::size_t pc_end = path.size() - kSuffix.size();
    return pc_end > pc_begin &&
           path.find('.', pc_begin) == pc_end;
}

} // namespace

std::vector<GateRow>
profileRows(const LoadedManifest &baseline, const LoadedManifest &candidate)
{
    std::vector<GateRow> rows;
    for (const auto &[path, cand_value] : candidate.metrics) {
        if (!isBranchSquashMetric(path))
            continue;
        GateRow row;
        row.key = path;
        row.candidate = cand_value;
        if (double value; baseline.metric(path, &value))
            row.baseline = value;
        row.higherIsBetter = false;
        row.absFloor = kProfileMinSlots;
        rows.push_back(std::move(row));
    }
    return rows;
}

namespace
{

/** The "hotspots" phases object of @p manifest, or null with *err
 *  set when the section is absent, disabled or pre-v7. */
const Json *
hotspotPhases(const LoadedManifest &manifest, std::string *err)
{
    const Json *section = manifest.doc.find("hotspots");
    if (section == nullptr || !section->isObject()) {
        *err = manifest.path +
               ": no \"hotspots\" section (schema " + manifest.schema +
               "; --hotspot-diff needs runs made with --hotspots)";
        return nullptr;
    }
    const Json *enabled = section->find("enabled");
    if (enabled == nullptr || !enabled->asBool()) {
        *err = manifest.path +
               ": hotspot sampler was off (run with --hotspots)";
        return nullptr;
    }
    const Json *phases = section->find("phases");
    if (phases == nullptr || !phases->isObject()) {
        *err = manifest.path + ": hotspots section has no phases";
        return nullptr;
    }
    return phases;
}

/** Reads a numeric member of a phase entry (0 when absent). */
double
phaseNumber(const Json &entry, const char *key)
{
    const Json *value = entry.find(key);
    return value != nullptr && value->isNumber() ? value->asDouble()
                                                 : 0.0;
}

} // namespace

bool
hotspotRows(const LoadedManifest &baseline, const LoadedManifest &candidate,
            std::vector<GateRow> *rows, std::string *err)
{
    const Json *base_phases = hotspotPhases(baseline, err);
    if (base_phases == nullptr)
        return false;
    const Json *cand_phases = hotspotPhases(candidate, err);
    if (cand_phases == nullptr)
        return false;
    for (const auto &[phase, entry] : cand_phases->members()) {
        if (!entry.isObject())
            continue;
        const double cand_self = phaseNumber(entry, "self");
        if (cand_self < kHotspotMinSamples)
            continue; /* too few samples to call it a shift */
        GateRow row;
        row.key = "hotspots.phases." + phase;
        row.candidate = phaseNumber(entry, "self_pct") / 100.0;
        row.higherIsBetter = false;
        row.noiseLabel = "3-sigma";
        row.noise = 3.0 / std::sqrt(cand_self);
        if (const Json *base_entry = base_phases->find(phase);
            base_entry != nullptr && base_entry->isObject()) {
            row.baseline = phaseNumber(*base_entry, "self_pct") / 100.0;
            const double base_self =
                std::max(phaseNumber(*base_entry, "self"), 1.0);
            row.noise = 3.0 * std::sqrt(1.0 / base_self + 1.0 / cand_self);
        }
        rows->push_back(std::move(row));
    }
    return true;
}

namespace
{

/** Short column label: strip directories and a trailing ".json". */
std::string
columnLabel(const std::string &path)
{
    std::string label = path;
    if (const std::size_t slash = label.find_last_of('/');
        slash != std::string::npos)
        label = label.substr(slash + 1);
    if (label.size() > 5 &&
        label.compare(label.size() - 5, 5, ".json") == 0)
        label = label.substr(0, label.size() - 5);
    return label;
}

} // namespace

std::string
renderManifestDiff(const std::vector<LoadedManifest> &manifests,
                   const std::string &filter)
{
    dee_assert(!manifests.empty(), "nothing to diff");

    // Row order: first manifest's document order, then metrics only
    // later manifests have, in theirs.
    std::vector<std::string> order;
    for (const LoadedManifest &m : manifests) {
        for (const auto &[path, value] : m.metrics) {
            (void)value;
            if (!filter.empty() && !globMatch(filter, path))
                continue;
            bool known = false;
            for (const std::string &seen : order) {
                if (seen == path) {
                    known = true;
                    break;
                }
            }
            if (!known)
                order.push_back(path);
        }
    }

    std::vector<std::string> headers{"metric"};
    for (const LoadedManifest &m : manifests)
        headers.push_back(columnLabel(m.path));
    const bool pairwise = manifests.size() == 2;
    if (pairwise)
        headers.push_back("delta");

    Table table(std::move(headers));
    for (const std::string &path : order) {
        std::vector<std::string> row{path};
        double first = 0.0, second = 0.0;
        bool have_first = false, have_second = false;
        for (std::size_t i = 0; i < manifests.size(); ++i) {
            double value = 0.0;
            if (manifests[i].metric(path, &value)) {
                row.push_back(Table::fmt(value, 6));
                if (i == 0) {
                    first = value;
                    have_first = true;
                } else if (i == 1) {
                    second = value;
                    have_second = true;
                }
            } else {
                row.push_back("-");
            }
        }
        if (pairwise) {
            if (have_first && have_second && first != 0.0) {
                row.push_back(Table::fmtPercent(
                    (second - first) / std::fabs(first), 2));
            } else {
                row.push_back("-");
            }
        }
        table.addRow(std::move(row));
    }
    return table.render();
}

} // namespace dee::obs
