/**
 * @file
 * Minimal command-line argument parser for the bench/example
 * binaries. Supports `--name value`, `--name=value`, and boolean
 * flags; prints a generated usage string on `--help`.
 */

#ifndef RLR_UTIL_ARGS_HH
#define RLR_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rlr::util
{

/** Declarative argument registry + parser. */
class ArgParser
{
  public:
    /** @param description one-line program description for --help */
    explicit ArgParser(std::string description);

    /** Register an option with a default value and help text. */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a boolean flag (defaults to false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. On `--help` prints usage and returns false;
     * on unknown options calls fatal().
     */
    bool parse(int argc, const char *const *argv);

    std::string get(const std::string &name) const;
    int64_t getInt(const std::string &name) const;
    uint64_t getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** Comma-separated list option split into entries. */
    std::vector<std::string> getList(const std::string &name) const;

    /** @return the generated usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string def;
        std::string help;
        bool is_flag;
    };

    std::string description_;
    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::string program_ = "prog";
};

} // namespace rlr::util

#endif // RLR_UTIL_ARGS_HH
