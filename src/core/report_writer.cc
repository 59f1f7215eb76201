#include "core/report_writer.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/file.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

std::string
renderMarkdownReport(const UskuReport &report)
{
    std::string md;
    md += format("# μSKU soft-SKU report: %s on %s\n\n",
                 report.spec.microservice.c_str(),
                 report.spec.platform.c_str());
    md += format("- report schema: v%d\n", kReportSchemaVersion);
    md += format("- sweep mode: `%s`\n",
                 sweepModeName(report.spec.sweep).c_str());
    md += format("- configurations evaluated: %llu\n",
                 static_cast<unsigned long long>(report.configsEvaluated));
    md += format("- A/B measurement time: %.1f hours\n\n",
                 report.measurementHours);

    md += "## Configurations\n\n";
    md += format("| | configuration |\n|---|---|\n");
    md += format("| stock | `%s` |\n", report.stock.describe().c_str());
    md += format("| production (hand-tuned) | `%s` |\n",
                 report.production.describe().c_str());
    md += format("| **soft SKU** | `%s` |\n\n",
                 report.softSku.describe().c_str());

    md += format("**Gain over stock: %+.2f%%.  Gain over hand-tuned "
                 "production: %+.2f%%.**\n\n",
                 report.gainOverStockPercent(),
                 report.gainOverProductionPercent());

    if (!report.plan.skipped.empty()) {
        md += "## Skipped knobs\n\n";
        for (const SkippedKnob &skipped : report.plan.skipped) {
            md += format("- `%s`: %s\n", knobKey(skipped.id).c_str(),
                         skipped.reason.c_str());
        }
        md += "\n";
    }

    md += "## Design-space map\n\n";
    md += "| knob | setting | gain % | ±CI % | significant | samples |\n";
    md += "|---|---|---|---|---|---|\n";
    for (const KnobSweep &sweep : report.map.sweeps) {
        for (const KnobOutcome &outcome : sweep.outcomes) {
            md += format(
                "| %s | %s | %s | %.2f | %s | %llu |\n",
                knobKey(sweep.id).c_str(), outcome.value.label.c_str(),
                outcome.isBaseline
                    ? "baseline"
                    : format("%+.2f", outcome.gainPercent).c_str(),
                outcome.gainCiPercent,
                outcome.isBaseline ? "-"
                                   : (outcome.significant ? "yes" : "no"),
                static_cast<unsigned long long>(outcome.samples));
        }
    }
    md += "\n";

    md += "## Prolonged validation\n\n";
    md += format("Deployed beside the production configuration for "
                 "%.1f days (%llu fleet telemetry samples): "
                 "**%+.2f%% ± %.2f%%** — %s.\n",
                 report.validation.durationSec / 86400.0,
                 static_cast<unsigned long long>(report.validation.samples),
                 report.validation.meanGainPercent,
                 report.validation.gainCiPercent,
                 report.validation.stable
                     ? "stable advantage"
                     : "no statistically significant advantage");
    return md;
}

void
writeMarkdownReport(const UskuReport &report, const std::string &path)
{
    if (!writeFileAtomic(path, renderMarkdownReport(report)))
        fatal("cannot write report to '%s': %s", path.c_str(),
              std::strerror(errno));
    inform("wrote μSKU report to %s", path.c_str());
}

std::string
targetReportFileName(const std::string &service,
                     const std::string &platform)
{
    return toLower(service) + "." + platform + ".v" +
           std::to_string(kReportSchemaVersion) + ".json";
}

std::string
emitTargetReport(const std::string &dir, const std::string &service,
                 const std::string &platform, const Json &doc)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create emit directory '%s': %s", dir.c_str(),
              ec.message().c_str());
    std::string path =
        (std::filesystem::path(dir) /
         targetReportFileName(service, platform))
            .string();
    if (!writeFileAtomic(path, doc.dump(2) + "\n"))
        fatal("cannot write dashboard JSON to '%s': %s", path.c_str(),
              std::strerror(errno));
    inform("emitted dashboard JSON to %s", path.c_str());
    return path;
}

} // namespace softsku
