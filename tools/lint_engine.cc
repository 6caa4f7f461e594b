#include "lint_engine.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lint_internal.h"
#include "lint_state.h"

namespace sdfm {
namespace lint {

// ---------------------------------------------------------------------
// Preprocessing: strip comments (and optionally string/char literals)
// while preserving line structure, and harvest suppression comments
// plus sdfm-state member annotations. Shared with lint_state.cc via
// lint_internal.h.
// ---------------------------------------------------------------------

namespace {

/** Parse "rule_a, rule_b" out of an allow(...) argument list. */
std::set<std::string>
parse_rule_list(const std::string &text, std::size_t open_paren)
{
    std::set<std::string> rules;
    std::size_t close = text.find(')', open_paren);
    if (close == std::string::npos)
        return rules;
    std::string args = text.substr(open_paren + 1, close - open_paren - 1);
    std::stringstream ss(args);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
        std::size_t a = rule.find_first_not_of(" \t");
        std::size_t b = rule.find_last_not_of(" \t");
        if (a != std::string::npos)
            rules.insert(rule.substr(a, b - a + 1));
    }
    return rules;
}

/** Scan one comment's text for suppression directives. */
void
harvest_suppressions(const std::string &comment, int line,
                     Preprocessed *out)
{
    static const std::string kTag = "sdfm-lint:";
    std::size_t pos = comment.find(kTag);
    if (pos == std::string::npos)
        return;
    std::size_t rest = pos + kTag.size();
    while (rest < comment.size() && std::isspace(
               static_cast<unsigned char>(comment[rest]))) {
        ++rest;
    }
    if (comment.compare(rest, 10, "allow-file") == 0) {
        std::size_t paren = comment.find('(', rest);
        if (paren != std::string::npos) {
            for (const auto &r : parse_rule_list(comment, paren)) {
                if (out->file_suppressions.count(r) == 0)
                    out->file_suppressions[r] = line;
            }
        }
    } else if (comment.compare(rest, 5, "allow") == 0) {
        std::size_t paren = comment.find('(', rest);
        if (paren != std::string::npos) {
            for (const auto &r : parse_rule_list(comment, paren))
                out->line_suppressions[line].insert(r);
        }
    }
}

/**
 * Scan one comment's text for an `sdfm-state: <tag>(<justification>)`
 * member annotation (see lint_state.h for the grammar and reach).
 */
void
harvest_annotation(const std::string &comment, int line,
                   Preprocessed *out)
{
    static const std::string kTag = "sdfm-state:";
    std::size_t pos = comment.find(kTag);
    if (pos == std::string::npos)
        return;
    std::size_t rest = pos + kTag.size();
    while (rest < comment.size() && std::isspace(
               static_cast<unsigned char>(comment[rest]))) {
        ++rest;
    }
    StateAnnotation anno;
    while (rest < comment.size() &&
           (std::isalnum(static_cast<unsigned char>(comment[rest])) ||
            comment[rest] == '-' || comment[rest] == '_')) {
        anno.tag.push_back(comment[rest++]);
    }
    if (anno.tag.empty())
        return;
    std::size_t paren = comment.find('(', rest);
    if (paren != std::string::npos) {
        std::size_t close = comment.rfind(')');
        if (close != std::string::npos && close > paren) {
            anno.justification =
                comment.substr(paren + 1, close - paren - 1);
        } else {
            anno.justification = comment.substr(paren + 1);
        }
    }
    if (out->annotations.count(line) == 0)
        out->annotations[line] = std::move(anno);
}

void
harvest_directives(const std::string &comment, int line,
                   Preprocessed *out)
{
    harvest_suppressions(comment, line, out);
    harvest_annotation(comment, line, out);
}

bool
is_ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Preprocessed
preprocess(const std::string &content)
{
    Preprocessed out;
    out.code = content;
    out.code_with_strings = content;

    enum class State
    {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
    };
    State state = State::kCode;
    int line = 1;
    std::string comment_text;
    int comment_line = 1;

    auto blank = [&](std::size_t i, bool strings_too) {
        if (out.code[i] != '\n')
            out.code[i] = ' ';
        if (strings_too && out.code_with_strings[i] != '\n')
            out.code_with_strings[i] = ' ';
    };

    for (std::size_t i = 0; i < content.size(); ++i) {
        char c = content[i];
        char next = i + 1 < content.size() ? content[i + 1] : '\0';
        switch (state) {
          case State::kCode:
            if (c == '/' && next == '/') {
                state = State::kLineComment;
                comment_text.clear();
                comment_line = line;
                blank(i, true);
            } else if (c == '/' && next == '*') {
                state = State::kBlockComment;
                comment_text.clear();
                comment_line = line;
                blank(i, true);
            } else if (c == '"') {
                state = State::kString;
                blank(i, false);
            } else if (c == '\'') {
                state = State::kChar;
                blank(i, false);
            }
            break;
          case State::kLineComment:
            if (c == '\n') {
                harvest_directives(comment_text, comment_line, &out);
                state = State::kCode;
            } else {
                comment_text.push_back(c);
                blank(i, true);
            }
            break;
          case State::kBlockComment:
            if (c == '*' && next == '/') {
                comment_text.push_back(c);
                blank(i, true);
                blank(i + 1, true);
                ++i;
                harvest_directives(comment_text, comment_line, &out);
                state = State::kCode;
            } else {
                comment_text.push_back(c);
                blank(i, true);
            }
            break;
          case State::kString:
            if (c == '\\' && next != '\0') {
                blank(i, false);
                blank(i + 1, false);
                ++i;
                if (content[i] == '\n')
                    ++line;
            } else if (c == '"') {
                state = State::kCode;
                blank(i, false);
            } else {
                blank(i, false);
            }
            break;
          case State::kChar:
            if (c == '\\' && next != '\0') {
                blank(i, false);
                blank(i + 1, false);
                ++i;
            } else if (c == '\'') {
                state = State::kCode;
                blank(i, false);
            } else {
                blank(i, false);
            }
            break;
        }
        if (content[i] == '\n')
            ++line;
    }
    if (state == State::kLineComment || state == State::kBlockComment)
        harvest_directives(comment_text, comment_line, &out);
    return out;
}

std::vector<std::string>
split_lines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    lines.push_back(cur);
    return lines;
}

std::vector<Token>
tokenize(const std::string &line)
{
    std::vector<Token> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        if (is_ident_char(line[i]) &&
            !std::isdigit(static_cast<unsigned char>(line[i]))) {
            Token t;
            t.begin = i;
            while (i < line.size() && is_ident_char(line[i]))
                t.text.push_back(line[i++]);
            t.end = i;
            t.is_ident = true;
            tokens.push_back(std::move(t));
        } else {
            ++i;
        }
    }
    return tokens;
}

std::vector<Token>
tokenize_all(const std::string &code)
{
    // Longest first, so "<<=" never parses as "<<" then "=".
    static const char *kOps[] = {
        "<<=", ">>=", "->*", "::", "->", "==", "!=", "<=", ">=",
        "+=",  "-=",  "*=",  "/=", "%=", "&=", "|=", "^=", "<<",
        ">>",  "++",  "--",  "&&", "||",
    };
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    while (i < code.size()) {
        char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (is_ident_char(c)) {
            Token t;
            t.begin = i;
            t.line = line;
            t.is_ident =
                !std::isdigit(static_cast<unsigned char>(c));
            while (i < code.size() && is_ident_char(code[i]))
                t.text.push_back(code[i++]);
            t.end = i;
            tokens.push_back(std::move(t));
            continue;
        }
        bool matched = false;
        for (const char *op : kOps) {
            std::size_t len = std::strlen(op);
            if (code.compare(i, len, op) == 0) {
                Token t;
                t.text = op;
                t.begin = i;
                t.end = i + len;
                t.line = line;
                tokens.push_back(std::move(t));
                i += len;
                matched = true;
                break;
            }
        }
        if (!matched) {
            Token t;
            t.text = std::string(1, c);
            t.begin = i;
            t.end = i + 1;
            t.line = line;
            tokens.push_back(std::move(t));
            ++i;
        }
    }
    return tokens;
}

char
next_nonspace(const std::string &line, std::size_t pos)
{
    while (pos < line.size()) {
        if (line[pos] != ' ' && line[pos] != '\t')
            return line[pos];
        ++pos;
    }
    return '\0';
}

bool
path_contains(const std::string &path, const char *needle)
{
    return path.find(needle) != std::string::npos;
}

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

std::string
path_stem(const std::string &path)
{
    std::size_t dot = path.find_last_of('.');
    std::size_t slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path;
    }
    return path.substr(0, dot);
}

// ---------------------------------------------------------------------
// Reporter: suppression reach + directive-usage accounting
// ---------------------------------------------------------------------

void
Reporter::report(const FileContext &ctx, const std::string &rule,
                 int line, const std::string &message)
{
    if (ctx.pre.file_suppressions.count(rule) > 0) {
        used_file_.insert({&ctx, rule});
        return;
    }
    auto suppressed = [&](int l) {
        auto it = ctx.pre.line_suppressions.find(l);
        return it != ctx.pre.line_suppressions.end() &&
               it->second.count(rule) > 0;
    };
    auto use = [&](int l) {
        used_line_.insert({&ctx, {l, rule}});
    };
    if (suppressed(line)) {
        use(line);
        return;
    }
    // A suppression comment above the statement covers it, even when
    // the comment's explanation spans several lines: walk upward past
    // comment-only/blank lines (blank after comment stripping) plus
    // the one code line directly above.
    for (int l = line - 1; l >= 1; --l) {
        if (suppressed(l)) {
            use(l);
            return;
        }
        if (static_cast<std::size_t>(l) <= ctx.code_lines.size() &&
            !trim(ctx.code_lines[static_cast<std::size_t>(l) - 1])
                 .empty()) {
            break;
        }
    }
    findings_->push_back(Finding{rule, ctx.source->path, line, message});
}

bool
Reporter::line_directive_used(const FileContext &ctx, int line,
                              const std::string &rule) const
{
    return used_line_.count({&ctx, {line, rule}}) > 0;
}

bool
Reporter::file_directive_used(const FileContext &ctx,
                              const std::string &rule) const
{
    return used_file_.count({&ctx, rule}) > 0;
}

// ---------------------------------------------------------------------
// Line/token-oriented rules
// ---------------------------------------------------------------------

namespace {

// ---------------------------------------------------------------------
// Rule: wallclock
// ---------------------------------------------------------------------

void
check_wallclock(const FileContext &ctx, Reporter &reporter)
{
    if (path_contains(ctx.source->path, "util/rng.") ||
        path_contains(ctx.source->path, "util/sim_time.h")) {
        return;
    }
    // Function-style uses: flagged only when followed by '('.
    static const std::set<std::string> kCallBanned = {
        "rand",        "srand",     "time",         "clock",
        "gettimeofday", "localtime", "gmtime",      "strftime",
        "timespec_get", "mktime",    "difftime",
    };
    // Banned on any mention: type names and <chrono> clocks.
    static const std::set<std::string> kUseBanned = {
        "random_device", "mt19937",       "mt19937_64",
        "minstd_rand",   "minstd_rand0",  "default_random_engine",
        "knuth_b",       "ranlux24",      "ranlux48",
        "system_clock",  "steady_clock",  "high_resolution_clock",
    };
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string &line = ctx.code_lines[i];
        for (const Token &t : tokenize(line)) {
            bool banned = false;
            if (kUseBanned.count(t.text) > 0) {
                banned = true;
            } else if (kCallBanned.count(t.text) > 0 &&
                       next_nonspace(line, t.end) == '(') {
                banned = true;
            }
            if (banned) {
                reporter.report(
                    ctx, "wallclock", static_cast<int>(i + 1),
                    "'" + t.text +
                        "' introduces wall-clock time or unseeded "
                        "randomness; draw from a seeded util/rng Rng "
                        "and count time in util/sim_time SimTime");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------

/** Names of variables declared with an unordered container type. */
std::set<std::string>
unordered_decls(const FileContext &ctx)
{
    std::set<std::string> names;
    for (const std::string &line : ctx.code_lines) {
        if (line.find("unordered_map<") == std::string::npos &&
            line.find("unordered_set<") == std::string::npos) {
            continue;
        }
        std::string trimmed = trim(line);
        if (trimmed.rfind("#", 0) == 0 || trimmed.rfind("using", 0) == 0)
            continue;
        // Declarations in this codebase are single-line; the declared
        // name is the last identifier before the terminating ';'.
        std::vector<Token> tokens = tokenize(line);
        if (!tokens.empty() && line.find(';') != std::string::npos)
            names.insert(tokens.back().text);
    }
    return names;
}

void
check_unordered_iter(const FileContext &ctx,
                     const std::set<std::string> &group_names,
                     Reporter &reporter)
{
    if (group_names.empty())
        return;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string &line = ctx.code_lines[i];
        std::vector<Token> tokens = tokenize(line);
        bool has_for = false;
        for (const Token &t : tokens) {
            if (t.text == "for") {
                has_for = true;
                break;
            }
        }
        for (std::size_t k = 0; k < tokens.size(); ++k) {
            const Token &t = tokens[k];
            if (group_names.count(t.text) == 0)
                continue;
            // Range-for over the container.
            if (has_for && line.find(':') != std::string::npos &&
                line.find(':') < t.begin) {
                reporter.report(
                    ctx, "unordered-iter", static_cast<int>(i + 1),
                    "iteration over unordered container '" + t.text +
                        "' -- order is implementation-defined; "
                        "iterate a sorted copy or an ordered "
                        "container instead");
                continue;
            }
            // Explicit iterator walk: container.begin()/cbegin().
            if (k + 1 < tokens.size() &&
                next_nonspace(line, t.end) == '.' &&
                (tokens[k + 1].text == "begin" ||
                 tokens[k + 1].text == "cbegin" ||
                 tokens[k + 1].text == "rbegin")) {
                reporter.report(
                    ctx, "unordered-iter", static_cast<int>(i + 1),
                    "iterator walk over unordered container '" +
                        t.text +
                        "' -- order is implementation-defined; "
                        "iterate a sorted copy or an ordered "
                        "container instead");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: float-accounting
// ---------------------------------------------------------------------

bool
accounting_name(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower.find("bytes") != std::string::npos)
        return true;
    if (lower.find("pages") != std::string::npos)
        return true;
    if (lower.size() >= 6 &&
        lower.compare(lower.size() - 6, 6, "_count") == 0) {
        return true;
    }
    return false;
}

void
check_float_accounting(const FileContext &ctx, Reporter &reporter)
{
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        const std::string &line = ctx.code_lines[i];
        std::vector<Token> tokens = tokenize(line);
        for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
            if (tokens[k].text != "double" && tokens[k].text != "float")
                continue;
            // Only whitespace between the type and the identifier:
            // this is a declaration, not a static_cast<double>(...).
            bool declaration = true;
            for (std::size_t c = tokens[k].end;
                 c < tokens[k + 1].begin; ++c) {
                if (line[c] != ' ' && line[c] != '\t') {
                    declaration = false;
                    break;
                }
            }
            if (!declaration)
                continue;
            if (accounting_name(tokens[k + 1].text)) {
                reporter.report(
                    ctx, "float-accounting", static_cast<int>(i + 1),
                    "'" + tokens[k + 1].text + "' is declared " +
                        tokens[k].text +
                        " but names an exact accounting quantity "
                        "(bytes/pages/count); use an unsigned "
                        "integer type");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: header-hygiene
// ---------------------------------------------------------------------

void
check_header_hygiene(const FileContext &ctx, Reporter &reporter)
{
    const std::string &path = ctx.source->path;
    if (path.size() < 2 || path.compare(path.size() - 2, 2, ".h") != 0)
        return;

    // (a) The first code line must open an include guard.
    int first_line = 0;
    std::string first;
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        first = trim(ctx.code_lines[i]);
        if (!first.empty()) {
            first_line = static_cast<int>(i + 1);
            break;
        }
    }
    bool guarded = first.rfind("#ifndef", 0) == 0 ||
                   first.rfind("#pragma once", 0) == 0;
    if (!guarded) {
        reporter.report(ctx, "header-hygiene",
                        first_line > 0 ? first_line : 1,
                        "header does not open with an include guard "
                        "(#ifndef/#define) or #pragma once");
    }

    // (b) No using-directives at file scope in headers.
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        if (trim(ctx.code_lines[i]).rfind("using namespace", 0) == 0) {
            reporter.report(ctx, "header-hygiene",
                            static_cast<int>(i + 1),
                            "'using namespace' in a header leaks the "
                            "namespace into every includer");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: dynamic-cast
// ---------------------------------------------------------------------

void
check_dynamic_cast(const FileContext &ctx, Reporter &reporter)
{
    for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
        for (const Token &t : tokenize(ctx.code_lines[i])) {
            if (t.text != "dynamic_cast")
                continue;
            reporter.report(
                ctx, "dynamic-cast", static_cast<int>(i + 1),
                "dynamic_cast probes a runtime type the caller should "
                "already know; dispatch on FarTier::kind() (or the "
                "owning registry) and static_cast instead");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: metric-name
// ---------------------------------------------------------------------

/**
 * `subsystem.snake_case`: two or more dot-separated components, each a
 * lowercase letter followed by lowercase letters, digits or
 * underscores.
 */
bool
is_metric_name(const std::string &name)
{
    auto lower = [](char c) { return c >= 'a' && c <= 'z'; };
    auto digit = [](char c) { return c >= '0' && c <= '9'; };
    std::size_t components = 0;
    std::size_t i = 0;
    for (;;) {
        if (i >= name.size() || !lower(name[i]))
            return false;
        while (i < name.size() &&
               (lower(name[i]) || digit(name[i]) || name[i] == '_')) {
            ++i;
        }
        ++components;
        if (i == name.size())
            return components >= 2;
        if (name[i] != '.')
            return false;
        ++i;
    }
}

void
check_metric_name(const FileContext &ctx, Reporter &reporter)
{
    // The collectors' emit form: a literal name subscripting one of
    // MetricsSnapshot's maps, as in snap.counters["zswap.stores"].
    static const std::set<std::string> kMaps = {"counters", "gauges",
                                                "histograms"};
    for (std::size_t i = 0; i < ctx.string_lines.size(); ++i) {
        const std::string &line = ctx.string_lines[i];
        for (const Token &t : tokenize(line)) {
            if (kMaps.count(t.text) == 0)
                continue;
            std::size_t pos = t.end;
            if (next_nonspace(line, pos) != '[')
                continue;
            pos = line.find('[', pos) + 1;
            if (next_nonspace(line, pos) != '"')
                continue;  // computed name; not checkable here
            std::size_t open = line.find('"', pos);
            std::size_t close = line.find('"', open + 1);
            if (close == std::string::npos)
                continue;  // literal continues past this line
            std::string name =
                line.substr(open + 1, close - open - 1);
            if (!is_metric_name(name)) {
                reporter.report(
                    ctx, "metric-name", static_cast<int>(i + 1),
                    "metric name \"" + name +
                        "\" does not follow subsystem.snake_case "
                        "(lowercase dot-separated components)");
            }
        }
    }
}

}  // namespace

std::vector<std::string>
rule_names()
{
    return {"wallclock",      "unordered-iter",  "float-accounting",
            "header-hygiene", "metric-name",     "dynamic-cast",
            "ckpt-coverage",  "digest-coverage", "parallel-safety",
            "stale-suppression"};
}

std::vector<Finding>
lint_sources(const std::vector<Source> &sources)
{
    std::vector<Finding> findings;
    Reporter reporter(&findings);

    std::vector<FileContext> contexts(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
        contexts[i].source = &sources[i];
        contexts[i].pre = preprocess(sources[i].content);
        contexts[i].code_lines = split_lines(contexts[i].pre.code);
        contexts[i].string_lines =
            split_lines(contexts[i].pre.code_with_strings);
    }

    // Unordered-container declarations propagate across a header /
    // source pair (foo.h declares the member, foo.cc iterates it).
    std::map<std::string, std::set<std::string>> group_unordered;
    for (const FileContext &ctx : contexts) {
        std::set<std::string> names = unordered_decls(ctx);
        group_unordered[path_stem(ctx.source->path)].insert(
            names.begin(), names.end());
    }

    for (const FileContext &ctx : contexts) {
        check_wallclock(ctx, reporter);
        check_unordered_iter(
            ctx, group_unordered[path_stem(ctx.source->path)], reporter);
        check_float_accounting(ctx, reporter);
        check_header_hygiene(ctx, reporter);
        check_metric_name(ctx, reporter);
        check_dynamic_cast(ctx, reporter);
    }

    // Whole-program state-coverage rules (lint_state.cc): member
    // extraction across every source, then the coverage and
    // parallel-safety checks.
    StateModel model = build_state_model(contexts);
    check_ckpt_coverage(model, contexts, reporter);
    check_digest_coverage(model, contexts, reporter);
    check_parallel_safety(model, contexts, reporter);

    // Last, after every rule has had the chance to consume directives:
    // flag the suppressions nothing used.
    check_stale_suppressions(contexts, reporter);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

std::vector<Finding>
lint_tree(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<Finding> findings;
    std::vector<std::string> paths;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        std::string p = it->path().string();
        if (p.size() >= 2 && p.compare(p.size() - 2, 2, ".h") == 0)
            paths.push_back(p);
        else if (p.size() >= 3 && p.compare(p.size() - 3, 3, ".cc") == 0)
            paths.push_back(p);
    }
    if (ec) {
        findings.push_back(Finding{"io-error", root, 0,
                                   "cannot walk tree: " + ec.message()});
        return findings;
    }
    std::sort(paths.begin(), paths.end());

    std::vector<Source> sources;
    sources.reserve(paths.size());
    for (const std::string &p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in) {
            findings.push_back(
                Finding{"io-error", p, 0, "cannot read file"});
            continue;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        sources.push_back(Source{p, ss.str()});
    }

    std::vector<Finding> tree_findings = lint_sources(sources);
    findings.insert(findings.end(), tree_findings.begin(),
                    tree_findings.end());
    return findings;
}

std::string
to_string(const Finding &finding)
{
    return finding.path + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

}  // namespace lint
}  // namespace sdfm
