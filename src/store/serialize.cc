#include "store/serialize.hh"

#include <climits>
#include <cstdint>

#include "util/logging.hh"

namespace nvmexp {
namespace store {

namespace {

const char *
flavorKey(CellFlavor flavor)
{
    switch (flavor) {
      case CellFlavor::Optimistic:  return "Optimistic";
      case CellFlavor::Pessimistic: return "Pessimistic";
      case CellFlavor::Reference:   return "Reference";
      case CellFlavor::Custom:      return "Custom";
    }
    panic("unhandled CellFlavor");
}

CellFlavor
flavorFromKey(const std::string &name)
{
    for (CellFlavor f : {CellFlavor::Optimistic, CellFlavor::Pessimistic,
                         CellFlavor::Reference, CellFlavor::Custom}) {
        if (name == flavorKey(f))
            return f;
    }
    fatal("store: unknown cell flavor '", name, "'");
}

const char *
senseModeKey(SenseMode mode)
{
    switch (mode) {
      case SenseMode::Voltage:  return "Voltage";
      case SenseMode::Current:  return "Current";
      case SenseMode::FetGated: return "FetGated";
      case SenseMode::Charge:   return "Charge";
    }
    panic("unhandled SenseMode");
}

SenseMode
senseModeFromKey(const std::string &name)
{
    for (SenseMode m : {SenseMode::Voltage, SenseMode::Current,
                        SenseMode::FetGated, SenseMode::Charge}) {
        if (name == senseModeKey(m))
            return m;
    }
    fatal("store: unknown sense mode '", name, "'");
}

int
asInt(const JsonValue &doc, const std::string &key)
{
    std::uint64_t value = 0;
    if (!doc.at(key).asCount(value, INT_MAX)) {
        fatal("store: \"", key, "\" must be a non-negative integer, "
              "got ", doc.at(key).dump(0));
    }
    return (int)value;
}

} // namespace

JsonValue
toJson(const MemCell &cell)
{
    JsonValue v = JsonValue::makeObject();
    v.set("name", JsonValue::makeString(cell.name));
    v.set("tech", JsonValue::makeString(techName(cell.tech)));
    v.set("flavor", JsonValue::makeString(flavorKey(cell.flavor)));
    v.set("sense_mode",
          JsonValue::makeString(senseModeKey(cell.senseMode)));
    v.set("bits_per_cell", JsonValue::makeNumber(cell.bitsPerCell));
    v.set("area_f2", JsonValue::makeNumber(cell.areaF2));
    v.set("aspect_ratio", JsonValue::makeNumber(cell.aspectRatio));
    v.set("read_voltage", JsonValue::makeNumber(cell.readVoltage));
    v.set("write_voltage", JsonValue::makeNumber(cell.writeVoltage));
    v.set("resistance_on", JsonValue::makeNumber(cell.resistanceOn));
    v.set("resistance_off", JsonValue::makeNumber(cell.resistanceOff));
    v.set("set_pulse", JsonValue::makeNumber(cell.setPulse));
    v.set("reset_pulse", JsonValue::makeNumber(cell.resetPulse));
    v.set("set_current", JsonValue::makeNumber(cell.setCurrent));
    v.set("reset_current", JsonValue::makeNumber(cell.resetCurrent));
    v.set("read_energy_per_bit",
          JsonValue::makeNumber(cell.readEnergyPerBit));
    v.set("endurance", JsonValue::makeNumber(cell.endurance));
    v.set("retention", JsonValue::makeNumber(cell.retention));
    v.set("non_volatile", JsonValue::makeBool(cell.nonVolatile));
    v.set("cell_leakage", JsonValue::makeNumber(cell.cellLeakage));
    v.set("min_node_nm", JsonValue::makeNumber(cell.minNodeNm));
    v.set("mlc_capable", JsonValue::makeBool(cell.mlcCapable));
    return v;
}

MemCell
cellFromJson(const JsonValue &doc)
{
    MemCell cell;
    cell.name = doc.at("name").asString();
    cell.tech = techFromName(doc.at("tech").asString());
    cell.flavor = flavorFromKey(doc.at("flavor").asString());
    cell.senseMode = senseModeFromKey(doc.at("sense_mode").asString());
    cell.bitsPerCell = asInt(doc, "bits_per_cell");
    cell.areaF2 = doc.at("area_f2").asNumber();
    cell.aspectRatio = doc.at("aspect_ratio").asNumber();
    cell.readVoltage = doc.at("read_voltage").asNumber();
    cell.writeVoltage = doc.at("write_voltage").asNumber();
    cell.resistanceOn = doc.at("resistance_on").asNumber();
    cell.resistanceOff = doc.at("resistance_off").asNumber();
    cell.setPulse = doc.at("set_pulse").asNumber();
    cell.resetPulse = doc.at("reset_pulse").asNumber();
    cell.setCurrent = doc.at("set_current").asNumber();
    cell.resetCurrent = doc.at("reset_current").asNumber();
    cell.readEnergyPerBit = doc.at("read_energy_per_bit").asNumber();
    cell.endurance = doc.at("endurance").asNumber();
    cell.retention = doc.at("retention").asNumber();
    cell.nonVolatile = doc.at("non_volatile").asBool();
    cell.cellLeakage = doc.at("cell_leakage").asNumber();
    cell.minNodeNm = asInt(doc, "min_node_nm");
    cell.mlcCapable = doc.at("mlc_capable").asBool();
    return cell;
}

JsonValue
toJson(const TrafficPattern &traffic)
{
    JsonValue v = JsonValue::makeObject();
    v.set("name", JsonValue::makeString(traffic.name));
    v.set("reads_per_sec", JsonValue::makeNumber(traffic.readsPerSec));
    v.set("writes_per_sec",
          JsonValue::makeNumber(traffic.writesPerSec));
    v.set("exec_time", JsonValue::makeNumber(traffic.execTime));
    return v;
}

TrafficPattern
trafficFromJson(const JsonValue &doc)
{
    TrafficPattern traffic;
    traffic.name = doc.at("name").asString();
    traffic.readsPerSec = doc.at("reads_per_sec").asNumber();
    traffic.writesPerSec = doc.at("writes_per_sec").asNumber();
    traffic.execTime = doc.at("exec_time").asNumber();
    return traffic;
}

JsonValue
toJson(const Organization &org)
{
    JsonValue v = JsonValue::makeObject();
    v.set("banks", JsonValue::makeNumber(org.banks));
    v.set("subarrays_per_bank",
          JsonValue::makeNumber(org.subarraysPerBank));
    v.set("rows", JsonValue::makeNumber(org.subarray.rows));
    v.set("cols", JsonValue::makeNumber(org.subarray.cols));
    v.set("sensed_bits", JsonValue::makeNumber(org.subarray.sensedBits));
    return v;
}

Organization
organizationFromJson(const JsonValue &doc)
{
    Organization org;
    org.banks = asInt(doc, "banks");
    org.subarraysPerBank = asInt(doc, "subarrays_per_bank");
    org.subarray.rows = asInt(doc, "rows");
    org.subarray.cols = asInt(doc, "cols");
    org.subarray.sensedBits = asInt(doc, "sensed_bits");
    return org;
}

JsonValue
toJson(const reliability::ReliabilityResult &rel)
{
    JsonValue v = JsonValue::makeObject();
    v.set("scheme", JsonValue::makeString(rel.scheme));
    v.set("scrub_interval_sec",
          JsonValue::makeNumber(rel.scrubIntervalSec));
    v.set("raw_ber", JsonValue::makeNumber(rel.rawBer));
    v.set("scrubbed_ber", JsonValue::makeNumber(rel.scrubbedBer));
    v.set("uncorrectable_word_rate",
          JsonValue::makeNumber(rel.uncorrectableWordRate));
    v.set("uncorrectable_image_rate",
          JsonValue::makeNumber(rel.uncorrectableImageRate));
    v.set("ecc_overhead", JsonValue::makeNumber(rel.eccOverhead));
    return v;
}

reliability::ReliabilityResult
reliabilityResultFromJson(const JsonValue &doc)
{
    reliability::ReliabilityResult rel;
    rel.scheme = doc.at("scheme").asString();
    rel.scrubIntervalSec = doc.at("scrub_interval_sec").asNumber();
    rel.rawBer = doc.at("raw_ber").asNumber();
    rel.scrubbedBer = doc.at("scrubbed_ber").asNumber();
    rel.uncorrectableWordRate =
        doc.at("uncorrectable_word_rate").asNumber();
    rel.uncorrectableImageRate =
        doc.at("uncorrectable_image_rate").asNumber();
    rel.eccOverhead = doc.at("ecc_overhead").asNumber();
    return rel;
}

JsonValue
toJson(const ArrayResult &array)
{
    JsonValue v = JsonValue::makeObject();
    v.set("cell", toJson(array.cell));
    v.set("node_nm", JsonValue::makeNumber(array.nodeNm));
    v.set("capacity_bytes", JsonValue::makeNumber(array.capacityBytes));
    v.set("word_bits", JsonValue::makeNumber(array.wordBits));
    v.set("org", toJson(array.org));
    v.set("read_latency", JsonValue::makeNumber(array.readLatency));
    v.set("write_latency", JsonValue::makeNumber(array.writeLatency));
    v.set("read_energy", JsonValue::makeNumber(array.readEnergy));
    v.set("write_energy", JsonValue::makeNumber(array.writeEnergy));
    v.set("leakage", JsonValue::makeNumber(array.leakage));
    v.set("area_m2", JsonValue::makeNumber(array.areaM2));
    v.set("area_efficiency",
          JsonValue::makeNumber(array.areaEfficiency));
    v.set("read_bandwidth", JsonValue::makeNumber(array.readBandwidth));
    v.set("write_bandwidth",
          JsonValue::makeNumber(array.writeBandwidth));
    return v;
}

ArrayResult
arrayResultFromJson(const JsonValue &doc)
{
    ArrayResult array;
    array.cell = cellFromJson(doc.at("cell"));
    array.nodeNm = asInt(doc, "node_nm");
    array.capacityBytes = doc.at("capacity_bytes").asNumber();
    array.wordBits = asInt(doc, "word_bits");
    array.org = organizationFromJson(doc.at("org"));
    array.readLatency = doc.at("read_latency").asNumber();
    array.writeLatency = doc.at("write_latency").asNumber();
    array.readEnergy = doc.at("read_energy").asNumber();
    array.writeEnergy = doc.at("write_energy").asNumber();
    array.leakage = doc.at("leakage").asNumber();
    array.areaM2 = doc.at("area_m2").asNumber();
    array.areaEfficiency = doc.at("area_efficiency").asNumber();
    array.readBandwidth = doc.at("read_bandwidth").asNumber();
    array.writeBandwidth = doc.at("write_bandwidth").asNumber();
    return array;
}

JsonValue
toJson(const EvalResult &result)
{
    JsonValue v = JsonValue::makeObject();
    v.set("array", toJson(result.array));
    v.set("traffic", toJson(result.traffic));
    v.set("dynamic_power", JsonValue::makeNumber(result.dynamicPower));
    v.set("leakage_power", JsonValue::makeNumber(result.leakagePower));
    v.set("total_power", JsonValue::makeNumber(result.totalPower));
    v.set("latency_load", JsonValue::makeNumber(result.latencyLoad));
    v.set("slowdown", JsonValue::makeNumber(result.slowdown));
    v.set("total_access_latency",
          JsonValue::makeNumber(result.totalAccessLatency));
    v.set("meets_read_bandwidth",
          JsonValue::makeBool(result.meetsReadBandwidth));
    v.set("meets_write_bandwidth",
          JsonValue::makeBool(result.meetsWriteBandwidth));
    v.set("reliability", toJson(result.reliability));
    v.set("lifetime_sec", JsonValue::makeNumber(result.lifetimeSec));
    return v;
}

EvalResult
evalResultFromJson(const JsonValue &doc)
{
    EvalResult result;
    result.array = arrayResultFromJson(doc.at("array"));
    result.traffic = trafficFromJson(doc.at("traffic"));
    result.dynamicPower = doc.at("dynamic_power").asNumber();
    result.leakagePower = doc.at("leakage_power").asNumber();
    result.totalPower = doc.at("total_power").asNumber();
    result.latencyLoad = doc.at("latency_load").asNumber();
    result.slowdown = doc.at("slowdown").asNumber();
    result.totalAccessLatency =
        doc.at("total_access_latency").asNumber();
    result.meetsReadBandwidth =
        doc.at("meets_read_bandwidth").asBool();
    result.meetsWriteBandwidth =
        doc.at("meets_write_bandwidth").asBool();
    result.reliability =
        reliabilityResultFromJson(doc.at("reliability"));
    result.lifetimeSec = doc.at("lifetime_sec").asNumber();
    return result;
}

JsonValue
toJson(const std::vector<EvalResult> &results)
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(kFormatVersion));
    JsonValue array = JsonValue::makeArray();
    for (const auto &result : results)
        array.append(toJson(result));
    v.set("results", std::move(array));
    return v;
}

std::vector<EvalResult>
evalResultsFromJson(const JsonValue &doc)
{
    std::uint64_t format = 0;
    if (!doc.at("format").asCount(format) || format != kFormatVersion) {
        fatal("store: results written with format ",
              doc.at("format").dump(0), ", this build reads format ",
              kFormatVersion);
    }
    std::vector<EvalResult> results;
    for (const auto &entry : doc.at("results").asArray())
        results.push_back(evalResultFromJson(entry));
    return results;
}

bool
identical(const ArrayResult &a, const ArrayResult &b)
{
    // Serialization covers every field losslessly, so comparing the
    // compact dumps compares the structs bit-for-bit.
    return toJson(a).dump(-1) == toJson(b).dump(-1);
}

bool
identical(const EvalResult &a, const EvalResult &b)
{
    return toJson(a).dump(-1) == toJson(b).dump(-1);
}

} // namespace store
} // namespace nvmexp
