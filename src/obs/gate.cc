#include "obs/gate.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/table.hh"

namespace dee::obs
{

GateReport
evaluateGate(std::vector<GateRow> rows, double threshold)
{
    for (GateRow &row : rows) {
        if (!row.candidate) {
            row.regressed = true;
            continue;
        }
        const double base = row.baseline.value_or(0.0);
        const double move = *row.candidate - base;
        row.relChange = base != 0.0 ? move / std::fabs(base) : move;
        const double bad = row.higherIsBetter ? -1.0 : 1.0;
        row.regressed = bad * move > row.absFloor &&
                        bad * row.relChange > threshold + row.noise;
    }
    return GateReport{threshold, std::move(rows)};
}

std::size_t
GateReport::regressions() const
{
    std::size_t n = 0;
    for (const GateRow &row : rows)
        n += row.regressed ? 1 : 0;
    return n;
}

std::string
GateReport::renderFailures(bool warnOnly) const
{
    std::ostringstream oss;
    oss << std::setprecision(10);
    for (const GateRow &row : rows) {
        if (!row.regressed)
            continue;
        oss << (warnOnly ? "WARN " : "FAIL ") << row.key << ": ";
        if (!row.candidate) {
            oss << "missing from candidate (baseline "
                << row.baseline.value_or(0.0) << ")\n";
            continue;
        }
        if (row.baseline)
            oss << "baseline " << *row.baseline << ", candidate "
                << *row.candidate << " ("
                << Table::fmtPercent(row.relChange, 2) << ", ";
        else
            oss << "new in candidate at " << *row.candidate << " (";
        oss << "tolerance " << Table::fmtPercent(threshold + row.noise, 2);
        if (row.noiseLabel)
            oss << " = " << Table::fmtPercent(threshold, 2) << " + "
                << row.noiseLabel << " "
                << Table::fmtPercent(row.noise, 2);
        if (row.absFloor > 0.0)
            oss << ", floor " << row.absFloor;
        oss << ")\n";
    }
    return oss.str();
}

} // namespace dee::obs
