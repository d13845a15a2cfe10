#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "machine/gallery.hh"
#include "obs/critpath.hh"
#include "obs/metrics.hh"

namespace alewife::core {

namespace {

void
hrule(std::ostream &os, int width)
{
    for (int i = 0; i < width; ++i)
        os << '-';
    os << '\n';
}

std::string
fmtOpt(const std::optional<double> &v, int prec = 1)
{
    if (!v)
        return "N/A";
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(prec) << *v;
    return ss.str();
}

} // namespace

void
printBreakdownTable(std::ostream &os, const std::string &title,
                    const std::vector<RunResult> &results)
{
    os << title << '\n';
    hrule(os, 78);
    os << std::left << std::setw(8) << "mech" << std::right
       << std::setw(12) << "runtime" << std::setw(12) << "compute"
       << std::setw(12) << "mem+ni" << std::setw(12) << "msg-ovhd"
       << std::setw(12) << "sync" << std::setw(10) << "verified"
       << '\n';
    hrule(os, 78);
    for (const RunResult &r : results) {
        os << std::left << std::setw(8) << mechanismShortName(r.mechanism)
           << std::right << std::fixed << std::setprecision(0)
           << std::setw(12) << r.runtimeCycles << std::setw(12)
           << r.avgCycles(TimeCat::Compute) << std::setw(12)
           << r.avgCycles(TimeCat::MemWait) << std::setw(12)
           << r.avgCycles(TimeCat::MsgOverhead) << std::setw(12)
           << r.avgCycles(TimeCat::Sync) << std::setw(10)
           << (r.verified ? "yes" : "NO") << '\n';
    }
    hrule(os, 78);
}

void
printVolumeTable(std::ostream &os, const std::string &title,
                 const std::vector<RunResult> &results)
{
    os << title << '\n';
    hrule(os, 78);
    os << std::left << std::setw(8) << "mech" << std::right
       << std::setw(14) << "total-bytes" << std::setw(12) << "invals"
       << std::setw(12) << "requests" << std::setw(12) << "headers"
       << std::setw(12) << "data" << '\n';
    hrule(os, 78);
    for (const RunResult &r : results) {
        os << std::left << std::setw(8) << mechanismShortName(r.mechanism)
           << std::right << std::setw(14) << r.volume.total()
           << std::setw(12) << r.volume.get(VolCat::Invalidates)
           << std::setw(12) << r.volume.get(VolCat::Requests)
           << std::setw(12) << r.volume.get(VolCat::Headers)
           << std::setw(12) << r.volume.get(VolCat::Data) << '\n';
    }
    hrule(os, 78);
}

void
printSeries(std::ostream &os, const std::string &title,
            const std::string &xlabel,
            const std::vector<MechSeries> &series)
{
    os << title << '\n';
    hrule(os, 16 + 14 * static_cast<int>(series.size()));
    os << std::left << std::setw(16) << xlabel << std::right;
    for (const MechSeries &s : series)
        os << std::setw(14) << mechanismShortName(s.mech);
    os << '\n';
    hrule(os, 16 + 14 * static_cast<int>(series.size()));
    if (series.empty())
        return;
    const std::size_t rows = series.front().points.size();
    for (std::size_t i = 0; i < rows; ++i) {
        os << std::left << std::fixed << std::setprecision(2)
           << std::setw(16) << series.front().points[i].x << std::right
           << std::setprecision(0);
        for (const MechSeries &s : series)
            os << std::setw(14) << s.points[i].result.runtimeCycles;
        os << '\n';
    }
    hrule(os, 16 + 14 * static_cast<int>(series.size()));
}

PredictedCost
printPredicted(std::ostream &os, const std::string &indent,
               const AppFactory &factory, const MachineConfig &base,
               const std::vector<MechSeries> &measured,
               const std::vector<double> &knobs,
               const std::function<obs::PredictTarget(double)> &targetFor)
{
    PredictedCost cost;
    for (const MechSeries &s : measured) {
        RunSpec spec;
        spec.machine = base;
        spec.mechanism = s.mech;
        obs::CritPathRecorder rec;
        runApp(factory, spec, /*verify_fatal=*/true, /*auditor=*/nullptr,
               /*driver=*/nullptr, &rec);
        obs::Predictor p(rec.graph());
        cost.captureEvents += p.solveEvents();

        os << indent << std::setw(6) << std::left
           << mechanismShortName(s.mech) << std::right;
        double errSum = 0.0;
        const std::size_t n = std::min(s.points.size(), knobs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const double meas = s.points[i].result.runtimeCycles;
            const double pred =
                p.predictRuntimeCycles(targetFor(knobs[i]));
            const double err =
                meas > 0 ? 100.0 * std::abs(pred - meas) / meas : 0.0;
            errSum += err;
            ++cost.solves;
            os << std::setw(11) << std::fixed << std::setprecision(0)
               << pred << " (" << std::setprecision(1) << err << "%)";
        }
        os << "   MAPE " << std::setprecision(1)
           << (n ? errSum / static_cast<double>(n) : 0.0) << "%\n";
    }
    return cost;
}

void
printTable1(std::ostream &os)
{
    os << "Table 1: parameter estimates for 32-processor machines\n";
    hrule(os, 96);
    os << std::left << std::setw(16) << "machine" << std::setw(8)
       << "MHz" << std::setw(18) << "topology" << std::right
       << std::setw(12) << "bsctn MB/s" << std::setw(12) << "B/cycle"
       << std::setw(10) << "net lat" << std::setw(10) << "rmt miss"
       << std::setw(10) << "lcl miss" << '\n';
    hrule(os, 96);
    for (const auto &e : galleryMachines()) {
        os << std::left << std::setw(16) << e.name << std::setw(8)
           << e.procMhz << std::setw(18) << e.topology << std::right
           << std::setw(12) << fmtOpt(e.bisectionMBps, 0)
           << std::setw(12) << fmtOpt(e.bytesPerCycle) << std::setw(10)
           << fmtOpt(e.netLatencyCycles, 0) << std::setw(10)
           << fmtOpt(e.remoteMissCycles, 0) << std::setw(10)
           << e.localMissCycles << '\n';
    }
    hrule(os, 96);
}

void
printTable2(std::ostream &os)
{
    os << "Table 2: parameters in terms of local cache-miss latency\n";
    hrule(os, 60);
    os << std::left << std::setw(16) << "machine" << std::right
       << std::setw(22) << "bsctn B/lcl-miss" << std::setw(22)
       << "net-lat / lcl-miss" << '\n';
    hrule(os, 60);
    for (const auto &e : galleryMachines()) {
        os << std::left << std::setw(16) << e.name << std::right
           << std::setw(22) << fmtOpt(e.bytesPerLocalMiss(), 0)
           << std::setw(22) << fmtOpt(e.netLatInLocalMisses()) << '\n';
    }
    hrule(os, 60);
}

void
printCounters(std::ostream &os, const RunResult &r)
{
    // Ingest the counter block through the same metrics registry the
    // JSON export uses, so the ASCII names/values and the machine-
    // readable ones come from one table and cannot disagree.
    obs::MetricsRegistry reg(1);
    reg.ingest(r.counters);
    os << "  [" << mechanismShortName(r.mechanism) << "]";
    int col = 0;
    for (const auto &f : machineCounterFields()) {
        const int id = reg.counterId(std::string("cmmu.") + f.name);
        if (col++ % 6 == 0 && col > 1)
            os << "\n       ";
        os << " " << f.name << "=" << reg.counterTotal(id);
    }
    os << " simEvents=" << r.simEvents << '\n';
}

} // namespace alewife::core
