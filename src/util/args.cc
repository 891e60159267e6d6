#include "util/args.hh"

#include <cstdlib>
#include "util/format.hh"
#include <iostream>

#include "util/logging.hh"

namespace rlr::util
{

ArgParser::ArgParser(std::string description)
    : description_(std::move(description))
{
    addFlag("help", "Print this help text and exit");
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    options_[name] = Option{def, help, false};
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    options_[name] = Option{"0", help, true};
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected positional argument '{}'", arg);
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        const auto it = options_.find(arg);
        if (it == options_.end())
            fatal("unknown option '--{}'\n{}", arg, usage());

        if (it->second.is_flag) {
            values_[arg] = has_value ? value : "1";
        } else if (has_value) {
            values_[arg] = value;
        } else if (i + 1 < argc) {
            values_[arg] = argv[++i];
        } else {
            fatal("option '--{}' requires a value", arg);
        }
    }
    if (getFlag("help")) {
        std::cout << usage();
        return false;
    }
    return true;
}

std::string
ArgParser::get(const std::string &name) const
{
    const auto vit = values_.find(name);
    if (vit != values_.end())
        return vit->second;
    const auto oit = options_.find(name);
    ensure(oit != options_.end(), "ArgParser: unregistered option");
    return oit->second.def;
}

int64_t
ArgParser::getInt(const std::string &name) const
{
    return std::strtoll(get(name).c_str(), nullptr, 0);
}

uint64_t
ArgParser::getUint(const std::string &name) const
{
    return std::strtoull(get(name).c_str(), nullptr, 0);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(get(name).c_str(), nullptr);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    const std::string v = get(name);
    return v == "1" || v == "true" || v == "yes";
}

std::vector<std::string>
ArgParser::getList(const std::string &name) const
{
    std::vector<std::string> out;
    const std::string v = get(name);
    size_t start = 0;
    while (start <= v.size()) {
        const size_t comma = v.find(',', start);
        const std::string item =
            v.substr(start, comma == std::string::npos
                                ? std::string::npos
                                : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

std::string
ArgParser::usage() const
{
    std::string out = util::format("{}\n\nUsage: {} [options]\n\n",
                                  description_, program_);
    for (const auto &[name, opt] : options_) {
        out += util::format("  --{:<22} {}", name, opt.help);
        if (!opt.is_flag)
            out += util::format(" (default: {})", opt.def);
        out += '\n';
    }
    return out;
}

} // namespace rlr::util
