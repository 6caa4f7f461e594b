/**
 * @file
 * Tests for the sdfm_lint rule engine: each rule is exercised with
 * known-bad fixture snippets (which must produce findings) and
 * known-good ones (which must not), plus the suppression-comment
 * semantics and the header/source pair propagation that catches
 * iteration in foo.cc over an unordered member declared in foo.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_engine.h"
#include "lint_state.h"

namespace sdfm {
namespace lint {
namespace {

/** Lint one in-memory file and return its findings. */
std::vector<Finding>
lint_one(const std::string &path, const std::string &content)
{
    return lint_sources({Source{path, content}});
}

/** Count findings for one rule. */
std::size_t
count_rule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

// ------------------------------------------------------------ wallclock

TEST(LintWallclockTest, FlagsRandAndChronoClocks)
{
    auto findings = lint_one("src/x.cc",
                             "int f() { return rand(); }\n"
                             "std::mt19937 gen;\n"
                             "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_EQ(count_rule(findings, "wallclock"), 3u);
    EXPECT_EQ(findings[0].line, 1);
}

TEST(LintWallclockTest, RequiresCallSyntaxForFunctionNames)
{
    // `time` as a plain identifier (a variable) is fine; only the
    // call `time(...)` is banned.
    auto findings = lint_one("src/x.cc",
                             "SimTime time = 0;\n"
                             "SimTime t2 = time (nullptr);\n");
    EXPECT_EQ(count_rule(findings, "wallclock"), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintWallclockTest, ExemptsRngAndSimTime)
{
    EXPECT_TRUE(lint_one("src/util/rng.cc",
                         "std::mt19937 reference_gen;\n")
                    .empty());
    EXPECT_TRUE(lint_one("src/util/sim_time.h",
                         "#pragma once\n"
                         "// uses steady_clock for doc purposes\n")
                    .empty());
}

TEST(LintWallclockTest, IgnoresCommentsAndStrings)
{
    auto findings = lint_one("src/x.cc",
                             "// rand() is banned\n"
                             "const char *s = \"rand()\";\n");
    EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------- unordered-iter

TEST(LintUnorderedIterTest, FlagsRangeForOverMember)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_map<int, int> table_;\n"
        "void f() { for (const auto &[k, v] : table_) use(k); }\n");
    EXPECT_EQ(count_rule(findings, "unordered-iter"), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintUnorderedIterTest, FlagsExplicitIteratorWalk)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> seen_;\n"
        "auto it = seen_.begin();\n");
    EXPECT_EQ(count_rule(findings, "unordered-iter"), 1u);
}

TEST(LintUnorderedIterTest, PropagatesAcrossHeaderSourcePair)
{
    // The member is declared in the header; the source iterates it.
    std::vector<Source> sources = {
        Source{"src/mem/thing.h",
               "#pragma once\n"
               "std::unordered_map<int, int> handles_;\n"},
        Source{"src/mem/thing.cc",
               "void f() { for (auto &kv : handles_) use(kv); }\n"},
    };
    auto findings = lint_sources(sources);
    ASSERT_EQ(count_rule(findings, "unordered-iter"), 1u);
    EXPECT_EQ(findings[0].path, "src/mem/thing.cc");
}

TEST(LintUnorderedIterTest, OrderedContainersAreFine)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::map<int, int> table_;\n"
        "void f() { for (const auto &[k, v] : table_) use(k); }\n");
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------- suppression

TEST(LintSuppressionTest, SameLineComment)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> s_;\n"
        "for (int v : s_) count(v);  "
        "// sdfm-lint: allow(unordered-iter) -- pure count\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, CommentOnPrecedingLine)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> s_;\n"
        "// sdfm-lint: allow(unordered-iter) -- pure count\n"
        "for (int v : s_) count(v);\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, MultiLineJustificationReaches)
{
    // The directive sits two comment lines above the statement; the
    // suppression must reach past its own justification text.
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> s_;\n"
        "// sdfm-lint: allow(unordered-iter) -- the result of this\n"
        "// loop is order independent because it only counts\n"
        "// matching elements.\n"
        "for (int v : s_) count(v);\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, DoesNotReachPastCode)
{
    // A code line between the suppression and the violation breaks
    // the reach: the suppression covers that code line, not the loop.
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> s_;\n"
        "// sdfm-lint: allow(unordered-iter)\n"
        "int unrelated = 0;\n"
        "for (int v : s_) count(v);\n");
    EXPECT_EQ(count_rule(findings, "unordered-iter"), 1u);
}

TEST(LintSuppressionTest, AllowFileCoversWholeFile)
{
    auto findings = lint_one(
        "src/x.cc",
        "// sdfm-lint: allow-file(unordered-iter)\n"
        "std::unordered_set<int> s_;\n"
        "for (int v : s_) count(v);\n"
        "for (int v : s_) count(v);\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, OnlyNamedRulesAreSuppressed)
{
    auto findings = lint_one(
        "src/x.cc",
        "std::unordered_set<int> s_;\n"
        "// sdfm-lint: allow(wallclock)\n"
        "for (int v : s_) count(v);\n");
    EXPECT_EQ(count_rule(findings, "unordered-iter"), 1u);
}

// ----------------------------------------------------- float-accounting

TEST(LintFloatAccountingTest, FlagsFloatDeclarationsOfExactQuantities)
{
    auto findings = lint_one("src/x.cc",
                             "double total_bytes = 0.0;\n"
                             "float page_count = 0;\n"
                             "double resident_pages = 0.0;\n");
    // "page_count" ends in _count; the other two contain bytes/pages.
    EXPECT_EQ(count_rule(findings, "float-accounting"), 3u);
}

TEST(LintFloatAccountingTest, CastsAndRatiosAreFine)
{
    auto findings = lint_one(
        "src/x.cc",
        "double frac = static_cast<double>(pool_bytes()) / total;\n"
        "double mean_latency_us = 0.0;\n");
    EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------- header-hygiene

TEST(LintHeaderHygieneTest, RequiresIncludeGuard)
{
    auto findings = lint_one("src/x.h", "int f();\n");
    EXPECT_EQ(count_rule(findings, "header-hygiene"), 1u);
    EXPECT_TRUE(lint_one("src/y.h",
                         "#ifndef SDFM_Y_H\n#define SDFM_Y_H\n"
                         "int f();\n#endif\n")
                    .empty());
    EXPECT_TRUE(lint_one("src/z.h", "#pragma once\nint f();\n").empty());
}

TEST(LintHeaderHygieneTest, FlagsUsingNamespaceInHeader)
{
    auto findings = lint_one("src/x.h",
                             "#pragma once\n"
                             "using namespace std;\n");
    EXPECT_EQ(count_rule(findings, "header-hygiene"), 1u);
    // Sources may use it (they do not leak into includers).
    EXPECT_TRUE(
        lint_one("src/x.cc", "using namespace std::chrono_literals;\n")
            .empty());
}

// ---------------------------------------------------------- metric-name

TEST(LintMetricNameTest, EnforcesSubsystemSnakeCase)
{
    auto findings = lint_one(
        "src/x.cc",
        "snap.counters[\"zswap.stores\"] = zs.stores;\n"
        "snap.counters[\"BadName\"] = 1;\n"
        "gauges [ \"machine.Resident\" ] = 1.0;\n"
        "snap.histograms[\"kstaled.scan_cycles\"] = ks.scan_cycles;\n"
        "counters[\"x.\"] = 0;\n"
        "counters[\"tier.nvm.2nd\"] = 0;\n"
        "snap.gauges[\"cluster.jobs\"] += 1.0;\n");
    EXPECT_EQ(count_rule(findings, "metric-name"), 4u);
}

TEST(LintMetricNameTest, IgnoresNonMemberCallsAndVariables)
{
    auto findings = lint_one(
        "src/x.cc",
        "counters(\"not a metric map\");\n"         // a call
        "my_counters[\"Not.Checked\"] = 1;\n"       // another map
        "counters[prefix + \"demotions\"] = n;\n"   // computed
        "snap.counter_or_zero(\"ReadsAreFine\");\n");  // a read
    EXPECT_TRUE(findings.empty());
}

// The tree's own collector form, one fixture each way.
TEST(LintMetricNameTest, ChecksCollectorEmitLines)
{
    auto bad = lint_one(
        "src/cluster/x.cc",
        "MetricsSnapshot\n"
        "MemoryBroker::telemetry_snapshot() const\n"
        "{\n"
        "    MetricsSnapshot snap;\n"
        "    snap.counters[\"pool.leasesGranted\"] = stats_.granted;\n"
        "    return snap;\n"
        "}\n");
    ASSERT_EQ(count_rule(bad, "metric-name"), 1u);
    EXPECT_EQ(bad[0].line, 5);

    auto good = lint_one(
        "src/cluster/x.cc",
        "MetricsSnapshot\n"
        "MemoryBroker::telemetry_snapshot() const\n"
        "{\n"
        "    MetricsSnapshot snap;\n"
        "    snap.counters[\"pool.leases_granted\"] = stats_.granted;\n"
        "    return snap;\n"
        "}\n");
    EXPECT_TRUE(good.empty());
}

// ------------------------------------------------------------ dynamic-cast

TEST(LintDynamicCastTest, FlagsDynamicCast)
{
    auto findings = lint_one(
        "src/x.cc",
        "NvmTier *n = dynamic_cast<NvmTier *>(tier);\n");
    EXPECT_EQ(count_rule(findings, "dynamic-cast"), 1u);
}

TEST(LintDynamicCastTest, IgnoresCommentsAndStrings)
{
    auto findings = lint_one(
        "src/x.cc",
        "// the old dynamic_cast accessors are gone\n"
        "const char *s = \"dynamic_cast\";\n"
        "int my_dynamic_cast_count = 0;\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintDynamicCastTest, SuppressibleWithJustification)
{
    auto findings = lint_one(
        "src/x.cc",
        "// sdfm-lint: allow(dynamic-cast) -- test double probes type\n"
        "NvmTier *n = dynamic_cast<NvmTier *>(tier);\n");
    EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------ machinery

TEST(LintEngineTest, RuleNamesMatchImplementedRules)
{
    auto names = rule_names();
    EXPECT_EQ(names.size(), 10u);
    EXPECT_NE(std::find(names.begin(), names.end(), "wallclock"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "unordered-iter"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "dynamic-cast"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ckpt-coverage"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "digest-coverage"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "parallel-safety"),
              names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "stale-suppression"),
        names.end());
}

TEST(LintEngineTest, FindingsAreSortedAndFormatted)
{
    std::vector<Source> sources = {
        Source{"src/b.cc", "double cold_bytes = 0.0;\n"},
        Source{"src/a.cc", "int x = rand();\n"},
    };
    auto findings = lint_sources(sources);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].path, "src/a.cc");
    EXPECT_EQ(findings[1].path, "src/b.cc");
    EXPECT_EQ(to_string(findings[0]).rfind("src/a.cc:1: [wallclock]", 0),
              0u);
}

// --------------------------------------------- member extraction model

/** Build the declaration model the state-coverage rules run on.
 *  @p sources must outlive the returned contexts (they are aliased). */
StateModel
model_of(const std::vector<Source> &sources,
         std::vector<FileContext> *contexts)
{
    contexts->clear();
    for (const Source &src : sources) {
        FileContext ctx;
        ctx.source = &src;
        ctx.pre = preprocess(src.content);
        ctx.code_lines = split_lines(ctx.pre.code);
        ctx.string_lines = split_lines(ctx.pre.code_with_strings);
        contexts->push_back(std::move(ctx));
    }
    return build_state_model(*contexts);
}

const StateClass *
find_class(const StateModel &model, const std::string &name)
{
    for (const StateClass &cls : model.classes) {
        if (cls.name == name)
            return &cls;
    }
    return nullptr;
}

std::vector<std::string>
member_names(const StateClass &cls)
{
    std::vector<std::string> names;
    for (const StateMember &m : cls.members)
        names.push_back(m.name);
    return names;
}

TEST(LintStateModelTest, ExtractsMutableMembersOfTemplateClass)
{
    std::vector<Source> sources = {Source{
        "src/x/box.h",
        "template <typename T>\n"
        "class Box\n"
        "{\n"
        "  public:\n"
        "    T get() const;\n"
        "    using Alias = T;\n"
        "  private:\n"
        "    T value_;\n"
        "    std::map<std::string, std::vector<T>> index_;\n"
        "    static int instances_;\n"
        "    const int limit_ = 4;\n"
        "    Box &parent_ref_;\n"
        "};\n"}};
    std::vector<FileContext> contexts;
    StateModel model = model_of(sources, &contexts);
    const StateClass *box = find_class(model, "Box");
    ASSERT_NE(box, nullptr);
    // Functions, aliases, statics, consts, and reference members are
    // not checkpointable mutable state.
    EXPECT_EQ(member_names(*box),
              (std::vector<std::string>{"value_", "index_"}));
}

TEST(LintStateModelTest, QualifiesNestedClassesAndSplitsDeclarators)
{
    std::vector<Source> sources = {Source{
        "src/x/outer.h",
        "class Outer\n"
        "{\n"
        "    struct Inner\n"
        "    {\n"
        "        std::uint64_t z_ = 0;\n"
        "    };\n"
        "    std::uint64_t a_ = 0, b_ = 1;\n"
        "    Inner inner_;\n"
        "};\n"}};
    std::vector<FileContext> contexts;
    StateModel model = model_of(sources, &contexts);
    const StateClass *outer = find_class(model, "Outer");
    const StateClass *inner = find_class(model, "Outer::Inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(member_names(*inner), (std::vector<std::string>{"z_"}));
    EXPECT_EQ(member_names(*outer),
              (std::vector<std::string>{"a_", "b_", "inner_"}));
}

TEST(LintStateModelTest, FindsOutOfLineBodiesAcrossHeaderSourcePair)
{
    std::vector<Source> sources = {
        Source{"src/x/thing.h",
               "class Thing\n"
               "{\n"
               "  public:\n"
               "    void ckpt_save(Serializer &s) const;\n"
               "    bool ckpt_load(Deserializer &d);\n"
               "  private:\n"
               "    std::uint64_t count_ = 0;\n"
               "};\n"},
        Source{"src/x/thing.cc",
               "void\n"
               "Thing::ckpt_save(Serializer &s) const\n"
               "{\n"
               "    s.put_u64(count_);\n"
               "}\n"
               "bool\n"
               "Thing::ckpt_load(Deserializer &d)\n"
               "{\n"
               "    count_ = d.get_u64();\n"
               "    return true;\n"
               "}\n"},
    };
    std::vector<FileContext> contexts;
    StateModel model = model_of(sources, &contexts);
    const StateClass *thing = find_class(model, "Thing");
    ASSERT_NE(thing, nullptr);
    EXPECT_EQ(thing->declared_methods.count("ckpt_save"), 1u);
    ASSERT_EQ(model.bodies.count("Thing"), 1u);
    const auto &bodies = model.bodies.at("Thing");
    ASSERT_EQ(bodies.count("ckpt_save"), 1u);
    EXPECT_NE(bodies.at("ckpt_save").find("count_"), std::string::npos);
    ASSERT_EQ(bodies.count("ckpt_load"), 1u);
}

// ---------------------------------------------------- ckpt-coverage

/** A checkpointed class whose save body forgot one member. */
static const char kDroppedFromSave[] =
    "class Widget\n"
    "{\n"
    "  public:\n"
    "    void ckpt_save(Serializer &s) const { s.put_u64(a_); }\n"
    "    bool ckpt_load(Deserializer &d)\n"
    "    {\n"
    "        a_ = d.get_u64();\n"
    "        b_ = d.get_u64();\n"
    "        return true;\n"
    "    }\n"
    "  private:\n"
    "    std::uint64_t a_ = 0;\n"
    "    std::uint64_t b_ = 0;\n"
    "};\n";

TEST(LintCkptCoverageTest, FiresWhenMemberDroppedFromSave)
{
    auto findings = lint_one("src/x/widget.h", kDroppedFromSave);
    ASSERT_EQ(count_rule(findings, "ckpt-coverage"), 1u);
    for (const Finding &f : findings) {
        if (f.rule != "ckpt-coverage")
            continue;
        EXPECT_EQ(f.line, 13);
        EXPECT_NE(f.message.find("Widget::b_"), std::string::npos);
    }
}

TEST(LintCkptCoverageTest, CoveredAndAnnotatedMembersAreClean)
{
    auto findings = lint_one(
        "src/x/widget.h",
        "class Widget\n"
        "{\n"
        "  public:\n"
        "    void ckpt_save(Serializer &s) const { s.put_u64(a_); }\n"
        "    bool ckpt_load(Deserializer &d)\n"
        "    {\n"
        "        a_ = d.get_u64();\n"
        "        return true;\n"
        "    }\n"
        "  private:\n"
        "    std::uint64_t a_ = 0;\n"
        "    // sdfm-state: non-semantic(scratch; rebuilt every step)\n"
        "    std::uint64_t scratch_ = 0;\n"
        "    // sdfm-state: derived(recomputed from a_ by ckpt_load)\n"
        "    std::uint64_t cache_ = 0;\n"
        "};\n");
    EXPECT_EQ(count_rule(findings, "ckpt-coverage"), 0u);
}

TEST(LintCkptCoverageTest, WireDriftFiresEvenWithAnnotation)
{
    // Saved-but-never-loaded is always wire drift: the annotation
    // cannot excuse bytes that go onto the wire and are never read.
    auto findings = lint_one(
        "src/x/widget.h",
        "class Widget\n"
        "{\n"
        "  public:\n"
        "    void ckpt_save(Serializer &s) const\n"
        "    {\n"
        "        s.put_u64(a_);\n"
        "        s.put_u64(orphan_);\n"
        "    }\n"
        "    bool ckpt_load(Deserializer &d)\n"
        "    {\n"
        "        a_ = d.get_u64();\n"
        "        return true;\n"
        "    }\n"
        "  private:\n"
        "    std::uint64_t a_ = 0;\n"
        "    // sdfm-state: non-semantic(not actually excusable)\n"
        "    std::uint64_t orphan_ = 0;\n"
        "};\n");
    ASSERT_EQ(count_rule(findings, "ckpt-coverage"), 1u);
    for (const Finding &f : findings) {
        if (f.rule == "ckpt-coverage") {
            EXPECT_NE(f.message.find("never read by"),
                      std::string::npos);
        }
    }
}

TEST(LintCkptCoverageTest, UnknownAnnotationTagIsReported)
{
    auto findings = lint_one(
        "src/x/widget.h",
        "class Widget\n"
        "{\n"
        "  public:\n"
        "    void ckpt_save(Serializer &s) const { s.put_u64(a_); }\n"
        "    bool ckpt_load(Deserializer &d)\n"
        "    {\n"
        "        a_ = d.get_u64();\n"
        "        return true;\n"
        "    }\n"
        "  private:\n"
        "    std::uint64_t a_ = 0;\n"
        "    // sdfm-state: transient(typo of a known tag)\n"
        "    std::uint64_t b_ = 0;\n"
        "};\n");
    ASSERT_EQ(count_rule(findings, "ckpt-coverage"), 1u);
    for (const Finding &f : findings) {
        if (f.rule == "ckpt-coverage") {
            EXPECT_NE(f.message.find("not recognized"),
                      std::string::npos);
        }
    }
}

TEST(LintCkptCoverageTest, AnnotationReachBreaksAcrossCode)
{
    // The annotation attaches to the next member only through
    // comments/blank lines; a code line in between breaks the reach,
    // so it cannot silently leak onto the following member.
    auto findings = lint_one(
        "src/x/widget.h",
        "class Widget\n"
        "{\n"
        "  public:\n"
        "    void ckpt_save(Serializer &s) const { s.put_u64(a_); }\n"
        "    bool ckpt_load(Deserializer &d)\n"
        "    {\n"
        "        a_ = d.get_u64();\n"
        "        return true;\n"
        "    }\n"
        "  private:\n"
        "    // sdfm-state: non-semantic(covers a_ only)\n"
        "\n"
        "    // ...reaches through blanks and comments...\n"
        "    std::uint64_t a_ = 0;\n"
        "    std::uint64_t stranded_ = 0;\n"
        "};\n");
    // a_ is covered by save+load anyway; stranded_ must still fire.
    ASSERT_EQ(count_rule(findings, "ckpt-coverage"), 1u);
    for (const Finding &f : findings) {
        if (f.rule == "ckpt-coverage") {
            EXPECT_NE(f.message.find("stranded_"), std::string::npos);
        }
    }
}

TEST(LintCkptCoverageTest, InterfaceOnlyClassesAreSkipped)
{
    // Pure declarations with no bodies anywhere (an interface) carry
    // no coverage obligations.
    auto findings = lint_one(
        "src/x/iface.h",
        "class Checkpointable\n"
        "{\n"
        "  public:\n"
        "    virtual void ckpt_save(Serializer &s) const = 0;\n"
        "    virtual bool ckpt_load(Deserializer &d) = 0;\n"
        "  private:\n"
        "    std::uint64_t tag_ = 0;\n"
        "};\n");
    EXPECT_EQ(count_rule(findings, "ckpt-coverage"), 0u);
}

// -------------------------------------------------- digest-coverage

TEST(LintDigestCoverageTest, FiresForUndigestedMember)
{
    auto findings = lint_one(
        "src/x/gadget.h",
        "class Gadget\n"
        "{\n"
        "  public:\n"
        "    std::uint64_t state_digest() const { return x_; }\n"
        "  private:\n"
        "    std::uint64_t x_ = 0;\n"
        "    std::uint64_t y_ = 0;\n"
        "};\n");
    ASSERT_EQ(count_rule(findings, "digest-coverage"), 1u);
    for (const Finding &f : findings) {
        if (f.rule == "digest-coverage") {
            EXPECT_EQ(f.line, 7);
            EXPECT_NE(f.message.find("Gadget::y_"), std::string::npos);
        }
    }
}

TEST(LintDigestCoverageTest, AnnotationExemptsMember)
{
    auto findings = lint_one(
        "src/x/gadget.h",
        "class Gadget\n"
        "{\n"
        "  public:\n"
        "    std::uint64_t state_digest() const { return x_; }\n"
        "  private:\n"
        "    std::uint64_t x_ = 0;\n"
        "    // sdfm-state: non-semantic(memoized lookup)\n"
        "    std::uint64_t y_ = 0;\n"
        "};\n");
    EXPECT_EQ(count_rule(findings, "digest-coverage"), 0u);
}

// -------------------------------------------------- parallel-safety

static const char kSharedBrokerHeader[] =
    "class Broker\n"
    "{\n"
    "  public:\n"
    "    void grant(std::uint64_t pages);\n"
    "    std::uint64_t donated_ = 0;\n"
    "};\n";

TEST(LintParallelSafetyTest, FlagsWritesAndCallsFromMachineLayer)
{
    std::vector<Source> sources = {
        Source{"src/cluster/broker.h", kSharedBrokerHeader},
        Source{"src/mem/donor.cc",
               "void f(Broker *broker)\n"
               "{\n"
               "    broker->donated_ = 1;\n"
               "    broker->grant(1);\n"
               "}\n"},
    };
    auto findings = lint_sources(sources);
    EXPECT_EQ(count_rule(findings, "parallel-safety"), 2u);
}

TEST(LintParallelSafetyTest, SerialPhaseAndConstAliasesAreExempt)
{
    std::vector<Source> sources = {
        Source{"src/cluster/broker.h", kSharedBrokerHeader},
        // The broker/cluster layer itself runs in the serial control
        // phase -- identical code there is fine.
        Source{"src/cluster/pool.cc",
               "void f(Broker *broker)\n"
               "{\n"
               "    broker->donated_ = 1;\n"
               "    broker->grant(1);\n"
               "}\n"},
        // A const alias in the machine layer is a read-only view.
        Source{"src/mem/reader.cc",
               "std::uint64_t g(const Broker *ro)\n"
               "{\n"
               "    return ro->donated_;\n"
               "}\n"},
    };
    auto findings = lint_sources(sources);
    EXPECT_EQ(count_rule(findings, "parallel-safety"), 0u);
}

TEST(LintParallelSafetyTest, AliasPropagatesAcrossHeaderSourcePair)
{
    // The alias is declared in the header; the write sits in the
    // paired source file, like a member pointer used by methods.
    std::vector<Source> sources = {
        Source{"src/cluster/broker.h", kSharedBrokerHeader},
        Source{"src/node/agent.h",
               "class Agent\n"
               "{\n"
               "    Broker *broker_ = nullptr;\n"
               "};\n"},
        Source{"src/node/agent.cc",
               "void Agent::poke() { broker_->grant(1); }\n"},
    };
    auto findings = lint_sources(sources);
    EXPECT_EQ(count_rule(findings, "parallel-safety"), 1u);
}

// ------------------------------------------------ stale-suppression

TEST(LintStaleSuppressionTest, UnusedDirectiveIsItselfAFinding)
{
    auto findings = lint_one(
        "src/x.cc",
        "int a = rand();  // sdfm-lint: allow(wallclock) -- seeded\n"
        "// sdfm-lint: allow(dynamic-cast) -- nothing casts here\n"
        "int b = 0;\n");
    // The wallclock suppression fired (so no wallclock finding and
    // no stale report); the dynamic-cast one suppressed nothing.
    EXPECT_EQ(count_rule(findings, "wallclock"), 0u);
    ASSERT_EQ(count_rule(findings, "stale-suppression"), 1u);
    for (const Finding &f : findings) {
        if (f.rule == "stale-suppression") {
            EXPECT_EQ(f.line, 2);
            EXPECT_NE(f.message.find("allow(dynamic-cast)"),
                      std::string::npos);
        }
    }
}

TEST(LintStaleSuppressionTest, UnusedAllowFileIsFlagged)
{
    auto findings = lint_one(
        "src/x.cc",
        "// sdfm-lint: allow-file(unordered-iter) -- legacy\n"
        "int b = 0;\n");
    ASSERT_EQ(count_rule(findings, "stale-suppression"), 1u);
    EXPECT_NE(findings[0].message.find("allow-file(unordered-iter)"),
              std::string::npos);
}

TEST(LintStaleSuppressionTest, UsedAllowFileIsClean)
{
    auto findings = lint_one(
        "src/x.cc",
        "// sdfm-lint: allow-file(wallclock) -- fixture generator\n"
        "int a = rand();\n"
        "int b = rand();\n");
    EXPECT_EQ(count_rule(findings, "wallclock"), 0u);
    EXPECT_EQ(count_rule(findings, "stale-suppression"), 0u);
}

}  // namespace
}  // namespace lint
}  // namespace sdfm
