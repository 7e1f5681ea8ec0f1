#include "obs/perf/perf_diff.hh"

#include <fstream>
#include <sstream>

namespace dee::obs::perf
{

const BenchTarget *
BenchArtifact::find(const std::string &name) const
{
    for (const BenchTarget &target : targets) {
        if (target.name == name)
            return &target;
    }
    return nullptr;
}

Json
benchArtifactToJson(const BenchArtifact &artifact)
{
    Json root = Json::object();
    root["schema"] = Json("dee.bench.v1");
    root["tool"] = Json("dee_bench");
    root["cells"] = Json(artifact.cells);
    root["scale"] = Json(artifact.scale);
    root["reps"] = Json(artifact.reps);
    root["warmup"] = Json(artifact.warmup);
    root["hw_counters"] = Json(artifact.hwCounters);
    Json targets = Json::object();
    for (const BenchTarget &t : artifact.targets) {
        Json node = Json::object();
        node["kips"] = Json(t.kips);
        node["kips_mad"] = Json(t.kipsMad);
        node["wall_ms"] = Json(t.wallMs);
        node["wall_ms_mad"] = Json(t.wallMsMad);
        node["host_ipc"] = Json(t.hostIpc);
        node["sim_instructions"] = Json(t.simInstructions);
        node["reps_kept"] = Json(t.repsKept);
        node["reps_dropped"] = Json(t.repsDropped);
        targets[t.name] = std::move(node);
    }
    root["targets"] = std::move(targets);
    return root;
}

namespace
{

double
numberOr(const Json &node, const char *key, double fallback)
{
    const Json *value = node.find(key);
    return value != nullptr && value->isNumber() ? value->asDouble()
                                                 : fallback;
}

std::uint64_t
countOr(const Json &node, const char *key, std::uint64_t fallback)
{
    const Json *value = node.find(key);
    if (value == nullptr || value->kind() != Json::Kind::Int)
        return fallback;
    const std::int64_t v = value->asInt();
    return v < 0 ? fallback : static_cast<std::uint64_t>(v);
}

} // namespace

bool
parseBenchArtifact(const std::string &text, const std::string &path,
                   BenchArtifact *out, std::string *err)
{
    Json doc;
    std::string parse_err;
    if (!Json::parse(text, &doc, &parse_err)) {
        if (err)
            *err = path + ": " + parse_err;
        return false;
    }
    if (!doc.isObject()) {
        if (err)
            *err = path + ": artifact root is not an object";
        return false;
    }
    const Json *schema = doc.find("schema");
    if (schema == nullptr || schema->kind() != Json::Kind::String ||
        schema->asString() != "dee.bench.v1") {
        if (err)
            *err = path + ": not a dee.bench.v1 artifact";
        return false;
    }
    const Json *targets = doc.find("targets");
    if (targets == nullptr || !targets->isObject()) {
        if (err)
            *err = path + ": missing \"targets\" object";
        return false;
    }

    out->path = path;
    const Json *cells = doc.find("cells");
    out->cells = cells != nullptr &&
                         cells->kind() == Json::Kind::String
                     ? cells->asString()
                     : "?";
    out->scale = static_cast<int>(numberOr(doc, "scale", 0));
    out->reps = countOr(doc, "reps", 0);
    out->warmup = countOr(doc, "warmup", 0);
    const Json *hw = doc.find("hw_counters");
    out->hwCounters =
        hw != nullptr && hw->kind() == Json::Kind::Bool && hw->asBool();
    out->targets.clear();
    for (const auto &[name, node] : targets->members()) {
        if (!node.isObject()) {
            if (err)
                *err = path + ": target '" + name + "' is not an object";
            return false;
        }
        BenchTarget target;
        target.name = name;
        target.kips = numberOr(node, "kips", 0.0);
        target.kipsMad = numberOr(node, "kips_mad", 0.0);
        target.wallMs = numberOr(node, "wall_ms", 0.0);
        target.wallMsMad = numberOr(node, "wall_ms_mad", 0.0);
        target.hostIpc = numberOr(node, "host_ipc", 0.0);
        target.simInstructions = countOr(node, "sim_instructions", 0);
        target.repsKept = countOr(node, "reps_kept", 0);
        target.repsDropped = countOr(node, "reps_dropped", 0);
        out->targets.push_back(std::move(target));
    }
    return true;
}

bool
loadBenchArtifact(const std::string &path, BenchArtifact *out,
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
    return parseBenchArtifact(buf.str(), path, out, err);
}

std::vector<GateRow>
throughputRows(const BenchArtifact &baseline, const BenchArtifact &candidate)
{
    std::vector<GateRow> rows;
    for (const BenchTarget &base : baseline.targets) {
        if (base.kips <= 0.0)
            continue;
        GateRow row;
        row.key = base.name;
        row.baseline = base.kips;
        row.noiseLabel = "MAD";
        if (const BenchTarget *cand = candidate.find(base.name)) {
            row.candidate = cand->kips;
            row.noise =
                kPerfNoiseMult * (base.kipsMad + cand->kipsMad) / base.kips;
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace dee::obs::perf
