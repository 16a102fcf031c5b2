#include "common/cli.h"

#include <cstdio>

namespace bxt {

const char *const versionString = "1.0.0";

Cli::Cli(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary))
{
}

void
Cli::add(const std::string &flag, const std::string &value_name,
         const std::string &help,
         std::function<void(const std::string &)> handler)
{
    options_.push_back({flag, value_name, help, std::move(handler)});
}

void
Cli::addFlag(const std::string &flag, const std::string &help,
             std::function<void()> handler)
{
    options_.push_back({flag, "", help,
                        [h = std::move(handler)](const std::string &) {
                            h();
                        }});
}

void
Cli::addPositional(const std::string &name, const std::string &help,
                   std::function<void(const std::string &)> handler)
{
    positional_name_ = name;
    positional_help_ = help;
    positional_handler_ = std::move(handler);
}

void
Cli::addReal(const std::string &flag, const std::string &value_name,
             const std::string &help, double &target, double lo, double hi)
{
    add(flag, value_name, help,
        [this, flag, lo, hi, &target](const std::string &v) {
            double x = 0.0;
            if (parseReal(v, lo, hi, x)) {
                target = x;
                return;
            }
            char want[64];
            if (hi == std::numeric_limits<double>::max())
                std::snprintf(want, sizeof(want), "a number >= %g", lo);
            else
                std::snprintf(want, sizeof(want), "a number in [%g, %g]", lo,
                              hi);
            reject(flag, v, want);
        });
}

void
Cli::reject(const std::string &flag, const std::string &value,
            const std::string &want)
{
    if (rejected_.empty())
        rejected_ = flag + " '" + value + "' (want " + want + ")";
}

std::string
Cli::intRange(long long lo, long long hi)
{
    if (hi == LLONG_MAX)
        return "a whole number >= " + std::to_string(lo);
    return "a whole number in " + std::to_string(lo) + ".." +
           std::to_string(hi);
}

std::string
Cli::usage() const
{
    std::string text = "usage: " + prog_ + " [options]";
    if (positional_handler_)
        text += " [" + positional_name_ + "...]";
    text += "\n" + summary_ + "\n\noptions:\n";
    for (const Option &option : options_) {
        std::string left = "  " + option.flag;
        if (!option.valueName.empty())
            left += " " + option.valueName;
        if (left.size() < 22)
            left.append(22 - left.size(), ' ');
        text += left + " " + option.help + "\n";
    }
    text += "  --help, -h           show this help and exit\n";
    text += "  --version            print version and exit\n";
    if (positional_handler_ && !positional_help_.empty())
        text += "\n" + positional_name_ + ": " + positional_help_ + "\n";
    return text;
}

bool
Cli::parse(int argc, char **argv)
{
    rejected_.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            exit_code_ = 0;
            return false;
        }
        if (arg == "--version") {
            std::printf("%s (bxt) %s\n", prog_.c_str(), versionString);
            exit_code_ = 0;
            return false;
        }
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            // Both `--flag VALUE` and `--flag=VALUE` spellings are
            // accepted; the name is everything before the first '='.
            const std::size_t eq = arg.find('=');
            const std::string name =
                eq == std::string::npos ? arg : arg.substr(0, eq);
            const bool has_inline_value = eq != std::string::npos;

            const Option *match = nullptr;
            for (const Option &option : options_) {
                if (option.flag == name) {
                    match = &option;
                    break;
                }
            }
            if (match == nullptr) {
                std::fprintf(stderr, "%s: unknown option '%s'\n\n%s",
                             prog_.c_str(), name.c_str(), usage().c_str());
                exit_code_ = 2;
                return false;
            }
            std::string value;
            if (!match->valueName.empty()) {
                if (has_inline_value) {
                    value = arg.substr(eq + 1);
                } else if (i + 1 < argc) {
                    value = argv[++i];
                } else {
                    std::fprintf(stderr, "%s: option '%s' needs a value\n",
                                 prog_.c_str(), name.c_str());
                    exit_code_ = 2;
                    return false;
                }
            } else if (has_inline_value) {
                std::fprintf(stderr,
                             "%s: option '%s' does not take a value\n",
                             prog_.c_str(), name.c_str());
                exit_code_ = 2;
                return false;
            }
            match->handler(value);
            if (!rejected_.empty()) {
                std::fprintf(stderr, "%s: bad %s\n", prog_.c_str(),
                             rejected_.c_str());
                exit_code_ = 2;
                return false;
            }
            continue;
        }
        if (positional_handler_) {
            positional_handler_(arg);
            continue;
        }
        std::fprintf(stderr, "%s: unexpected argument '%s'\n\n%s",
                     prog_.c_str(), arg.c_str(), usage().c_str());
        exit_code_ = 2;
        return false;
    }
    return true;
}

} // namespace bxt
