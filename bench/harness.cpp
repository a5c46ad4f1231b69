#include "harness.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/build_info.hpp"

namespace mf::bench {

std::size_t l3_cache_bytes() {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
    if (f) {
        std::string s;
        f >> s;
        if (!s.empty()) {
            const auto suffix = s.back();
            const auto num = std::stoull(s);
            if (suffix == 'K') return num * 1024;
            if (suffix == 'M') return num * 1024 * 1024;
            return num;
        }
    }
    return 16u * 1024 * 1024;
}

std::string cpu_name() {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string name = line.substr(colon + 1);
                const auto start = name.find_first_not_of(' ');
                return start == std::string::npos ? name : name.substr(start);
            }
        }
    }
    return "unknown CPU";
}

Table make_table(std::string title, std::vector<std::string> rows,
                 std::vector<std::string> columns) {
    Table t;
    t.title = std::move(title);
    t.rows = std::move(rows);
    t.columns = std::move(columns);
    t.cells.assign(t.rows.size(), std::vector<Cell>(t.columns.size()));
    return t;
}

void Table::print(std::FILE* out) const {
    std::fprintf(out, "\n%s\n", title.c_str());
    std::size_t w = 12;
    for (const auto& r : rows) w = std::max(w, r.size() + 2);
    std::fprintf(out, "%-*s", static_cast<int>(w), "Library");
    for (const auto& c : columns) std::fprintf(out, "%10s", c.c_str());
    std::fprintf(out, "\n");
    for (std::size_t i = 0; i < w + 10 * columns.size(); ++i) std::fputc('-', out);
    std::fputc('\n', out);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(out, "%-*s", static_cast<int>(w), rows[r].c_str());
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (cells[r][c].available) {
                std::fprintf(out, "%10.3f", cells[r][c].gops);
            } else {
                std::fprintf(out, "%10s", "N/A");
            }
        }
        std::fputc('\n', out);
    }
}

bool JsonReport::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
        return false;
    }
    // All strings here are harness-controlled ASCII (kernel/backend names,
    // /proc/cpuinfo model strings); no JSON escaping is required beyond
    // suppressing quotes/backslashes defensively.
    const auto clean = [](const std::string& s) {
        std::string r;
        for (char c : s) {
            if (c != '"' && c != '\\' && c >= 0x20) r.push_back(c);
        }
        return r;
    };
    const telemetry::BuildInfo info = telemetry::build_info();
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"cpu\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n  \"compiler\": \"%s\",\n"
                 "  \"threads\": %d,\n  \"backend\": \"%s\",\n"
                 "  \"fp_env\": \"%s\",\n  \"records\": [",
                 clean(bench).c_str(), clean(cpu_name()).c_str(),
                 clean(info.git_sha).c_str(), clean(info.compiler).c_str(),
                 info.threads, clean(info.backend).c_str(),
                 clean(info.fp_env).c_str());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JsonRecord& r = records[i];
        std::fprintf(f,
                     "%s\n    {\"kernel\": \"%s\", \"type\": \"%s\", \"limbs\": %d, "
                     "\"backend\": \"%s\", \"width\": %d, "
                     "\"ns_per_op\": %.6g, \"gflops_equiv\": %.6g, \"dim\": %zu",
                     i ? "," : "", clean(r.kernel).c_str(), clean(r.type).c_str(),
                     r.limbs, clean(r.backend).c_str(), r.width, r.ns_per_op,
                     r.gflops_equiv, r.dim);
        if (r.threads > 0) std::fprintf(f, ", \"threads\": %d", r.threads);
        if (!r.op.empty()) std::fprintf(f, ", \"op\": \"%s\"", clean(r.op).c_str());
        if (r.k > 0) std::fprintf(f, ", \"k\": %zu", r.k);
        if (!r.guard.empty()) std::fprintf(f, ", \"guard\": \"%s\"", clean(r.guard).c_str());
        if (r.ceiling_ns > 0) std::fprintf(f, ", \"ceiling_ns\": %.6g", r.ceiling_ns);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
}

double Table::best_excluding(std::size_t row, std::size_t col) const {
    double best = 0.0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r == row) continue;
        if (cells[r][col].available) best = std::max(best, cells[r][col].gops);
    }
    return best;
}

}  // namespace mf::bench
