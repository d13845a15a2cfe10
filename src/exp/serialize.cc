#include "exp/serialize.hh"

#include <ostream>

#include "sim/logging.hh"

namespace alewife::exp {

namespace {

Json
schemaHeader()
{
    Json j = Json::object();
    j.set("schema", "alewife-results");
    j.set("version", kResultSchemaVersion);
    return j;
}

} // namespace

Json
resultToJson(const core::RunResult &r)
{
    Json j = Json::object();
    j.set("app", r.app);
    j.set("mechanism", core::mechanismShortName(r.mechanism));
    j.set("runtimeCycles", r.runtimeCycles);

    // Breakdown/volume in raw ticks/bytes (integers): exact round trip.
    Json bd = Json::object();
    for (std::size_t i = 0; i < r.breakdown.ticks.size(); ++i)
        bd.set(timeCatName(static_cast<TimeCat>(i)),
               r.breakdown.ticks[i]);
    j.set("breakdownTicks", std::move(bd));

    Json vol = Json::object();
    for (std::size_t i = 0; i < r.volume.bytes.size(); ++i)
        vol.set(volCatName(static_cast<VolCat>(i)), r.volume.bytes[i]);
    j.set("volumeBytes", std::move(vol));

    // Counters serialize by name (shared machineCounterFields table)
    // so the schema survives member reordering; absent fields decode
    // to the natural zero, renames bump the schema.
    Json ctr = Json::object();
    for (const auto &f : machineCounterFields())
        ctr.set(f.name, r.counters.*(f.member));
    j.set("counters", std::move(ctr));

    j.set("checksum", r.checksum);
    j.set("reference", r.reference);
    j.set("verified", r.verified);
    j.set("simEvents", r.simEvents);
    return j;
}

std::optional<core::RunResult>
resultFromJson(const Json &j, std::string *err)
{
    // The typed accessors are fatal on a mismatch, so every field is
    // checked before it is read: a bad cache entry fails one decode,
    // never the process that reads it. The first problem is reported.
    std::string why;
    auto get = [&](const Json *obj, const std::string &k,
                   Json::Type t) -> const Json * {
        const Json *v = obj ? obj->find(k) : nullptr;
        if (v && v->type() == t)
            return v;
        if (why.empty())
            why = "missing or mistyped key \"" + k + "\"";
        return nullptr;
    };
    // @p v was found under @p k; asU64() is fatal on negatives too.
    auto count = [&](const Json *v, const char *k) {
        if (v && v->isNumber() && v->asDouble() >= 0.0)
            return v->asU64();
        if (why.empty())
            why = std::string("missing or bad count \"") + k + "\"";
        return std::uint64_t{0};
    };

    core::RunResult r;
    if (const Json *v = get(&j, "app", Json::Type::String))
        r.app = v->asString();
    if (const Json *v = get(&j, "mechanism", Json::Type::String)) {
        const auto m = core::mechanismFromName(v->asString());
        if (m)
            r.mechanism = *m;
        else if (why.empty())
            why = "unknown mechanism name: " + v->asString();
    }
    if (const Json *v = get(&j, "runtimeCycles", Json::Type::Number))
        r.runtimeCycles = v->asDouble();

    if (const Json *bd = get(&j, "breakdownTicks", Json::Type::Object)) {
        for (std::size_t i = 0; i < r.breakdown.ticks.size(); ++i) {
            const char *k = timeCatName(static_cast<TimeCat>(i));
            r.breakdown.ticks[i] = count(bd->find(k), k);
        }
    }
    if (const Json *vol = get(&j, "volumeBytes", Json::Type::Object)) {
        for (std::size_t i = 0; i < r.volume.bytes.size(); ++i) {
            const char *k = volCatName(static_cast<VolCat>(i));
            r.volume.bytes[i] = count(vol->find(k), k);
        }
    }
    // Absent counters decode to the natural zero.
    if (const Json *ctr = get(&j, "counters", Json::Type::Object)) {
        for (const auto &f : machineCounterFields()) {
            if (const Json *v = ctr->find(f.name))
                r.counters.*(f.member) = count(v, f.name);
        }
    }

    if (const Json *v = get(&j, "checksum", Json::Type::Number))
        r.checksum = v->asDouble();
    if (const Json *v = get(&j, "reference", Json::Type::Number))
        r.reference = v->asDouble();
    if (const Json *v = get(&j, "verified", Json::Type::Bool))
        r.verified = v->asBool();
    r.simEvents = count(j.find("simEvents"), "simEvents");

    if (!why.empty()) {
        if (err)
            *err = why;
        return std::nullopt;
    }
    return r;
}

core::RunResult
resultFromJson(const Json &j)
{
    std::string err;
    std::optional<core::RunResult> r = resultFromJson(j, &err);
    if (!r)
        ALEWIFE_FATAL("json: cannot decode a result: ", err);
    return std::move(*r);
}

Json
batchToJson(const std::string &app,
            const std::vector<core::RunResult> &results)
{
    Json j = schemaHeader();
    j.set("kind", "batch");
    j.set("app", app);
    Json arr = Json::array();
    for (const auto &r : results)
        arr.push(resultToJson(r));
    j.set("results", std::move(arr));
    return j;
}

Json
seriesToJson(const std::string &title, const std::string &xlabel,
             const std::vector<core::MechSeries> &series)
{
    Json j = schemaHeader();
    j.set("kind", "sweep");
    j.set("title", title);
    j.set("xlabel", xlabel);
    Json arr = Json::array();
    for (const auto &s : series) {
        Json sj = Json::object();
        sj.set("mechanism", core::mechanismShortName(s.mech));
        Json pts = Json::array();
        for (const auto &p : s.points) {
            Json pj = Json::object();
            pj.set("x", p.x);
            pj.set("result", resultToJson(p.result));
            pts.push(std::move(pj));
        }
        sj.set("points", std::move(pts));
        arr.push(std::move(sj));
    }
    j.set("series", std::move(arr));
    return j;
}

namespace {

void
csvResultColumns(std::ostream &os, const core::RunResult &r)
{
    os << core::mechanismShortName(r.mechanism) << ','
       << r.runtimeCycles;
    for (std::size_t i = 0; i < r.breakdown.ticks.size(); ++i)
        os << ','
           << r.breakdown.cycles(static_cast<TimeCat>(i));
    for (std::size_t i = 0; i < r.volume.bytes.size(); ++i)
        os << ',' << r.volume.bytes[i];
    os << ',' << r.simEvents << ',' << (r.verified ? 1 : 0);
}

void
csvResultHeader(std::ostream &os)
{
    os << "mechanism,runtimeCycles";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TimeCat::NumCats); ++i)
        os << ",cycles:" << timeCatName(static_cast<TimeCat>(i));
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(VolCat::NumCats); ++i)
        os << ",bytes:" << volCatName(static_cast<VolCat>(i));
    os << ",simEvents,verified";
}

} // namespace

void
writeBatchCsv(std::ostream &os,
              const std::vector<core::RunResult> &results)
{
    os << "app,";
    csvResultHeader(os);
    os << '\n';
    for (const auto &r : results) {
        os << r.app << ',';
        csvResultColumns(os, r);
        os << '\n';
    }
}

void
writeSeriesCsv(std::ostream &os, const std::string &xlabel,
               const std::vector<core::MechSeries> &series)
{
    os << "app," << (xlabel.empty() ? "x" : xlabel) << ',';
    csvResultHeader(os);
    os << '\n';
    for (const auto &s : series) {
        for (const auto &p : s.points) {
            os << p.result.app << ',' << p.x << ',';
            csvResultColumns(os, p.result);
            os << '\n';
        }
    }
}

} // namespace alewife::exp
