// Family D: deferred-callback lifetime. A SmallFn handed to the DES core
// (Simulator::ScheduleAt/ScheduleAfter, PeriodicTask::Start,
// EventQueue::Insert, or any SmallFn/EventFn-typed parameter or member) fires
// after the enclosing C++ scope has unwound — a lambda that captures a stack
// local by reference is therefore the simulator's analogue of a data race: it
// replays deterministically, reads freed stack memory, and produces
// plausible-but-wrong results instead of a crash. This family tracks lambda
// literals and named lambda locals to the calls that consume them and flags:
//   * by-reference captures (`[&]`, `[&x]`, `[p = &x]`) flowing into a
//     deferred sink, or into a callee the rule cannot prove synchronous;
//   * by-value captures of address-of / iterator locals flowing into a sink
//     (the pointer is copied, the pointee dies with the scope);
//   * `this` captures in *header* lambdas flowing into a sink — library
//     components with caller-owned lifetime must pair `this` with an epoch /
//     generation guard (see sim::PeriodicTask) and carry an audited
//     `allow(deferred-capture, ...)`.
// Lambdas invoked directly (`name(...)`) or passed to known-synchronous
// callees (std algorithms, the radix-tree visitors) are exempt.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lint.h"
#include "rules_util.h"

namespace ds_lint {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// Callees that invoke their callable argument before returning. Passing a
// by-reference lambda to these is safe by construction.
bool IsSyncCallee(const std::string& name) {
  static const std::set<std::string>* kSync = new std::set<std::string>{
      // std algorithms (the ones used in this tree plus close relatives).
      "for_each", "all_of", "any_of", "none_of", "find_if", "find_if_not",
      "count_if", "remove_if", "partition", "stable_partition", "sort",
      "stable_sort", "nth_element", "lower_bound", "upper_bound",
      "min_element", "max_element", "minmax_element", "accumulate", "reduce",
      "transform", "generate", "generate_n", "erase_if", "unique",
      "adjacent_find", "is_sorted", "partition_point", "binary_search",
      "visit", "apply", "clamp",
      // Project-local synchronous visitors (rtc::RadixTree / FlatMap).
      "ForEach", "VisitSubtree"};
  return kSync->count(name) > 0;
}

// `ident (` where ident is one of these is control flow, not a call.
bool IsStmtKeyword(const std::string& s) {
  static const std::set<std::string>* kKw = new std::set<std::string>{
      "if", "while", "for", "switch", "return", "sizeof", "alignof",
      "co_await", "co_return", "catch", "case", "new", "delete", "assert"};
  return kKw->count(s) > 0;
}

// Innermost enclosing callee, looking through std::move/std::forward.
std::string EffectiveCallee(const std::vector<std::string>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == "move" || *it == "forward") continue;
    return *it;
  }
  return "";
}

struct CaptureItem {
  enum Kind {
    kRefDefault,  // [&]
    kRefNamed,    // [&x]
    kInitAddr,    // [p = &x]
    kValNamed,    // [x]
    kThis,        // [this]
    kOther,       // [=], [*this], [x = expr], packs...
  };
  Kind kind = kOther;
  std::string name;
};

// Splits the capture list between tokens (intro, close) at top-level commas
// and classifies each item.
std::vector<CaptureItem> ParseCaptures(const std::vector<Token>& t,
                                       size_t intro, size_t close) {
  std::vector<CaptureItem> items;
  size_t i = intro + 1;
  while (i < close) {
    size_t start = i;
    std::vector<size_t> ix;  // code tokens of this item
    while (i < close) {
      if (t[i].kind == Tok::kPreproc) {
        ++i;
        continue;
      }
      const std::string& s = t[i].text;
      if (s == "(" || s == "[" || s == "{") {
        size_t sub = MatchDelim(t, i);
        for (size_t k = i; k <= sub && k < close; ++k) {
          if (t[k].kind != Tok::kPreproc) ix.push_back(k);
        }
        i = sub + 1;
        continue;
      }
      if (s == ",") break;
      ix.push_back(i);
      ++i;
    }
    if (i < close) ++i;  // skip ','
    (void)start;
    if (ix.empty()) continue;
    CaptureItem item;
    const Token& first = t[ix[0]];
    if (first.text == "&" && ix.size() == 1) {
      item.kind = CaptureItem::kRefDefault;
    } else if (first.text == "&" && ix.size() >= 2 && IsIdentTok(t, ix[1])) {
      item.kind = CaptureItem::kRefNamed;
      item.name = t[ix[1]].text;
    } else if (first.text == "this") {
      item.kind = CaptureItem::kThis;
    } else if (first.kind == Tok::kIdent && ix.size() == 1) {
      item.kind = CaptureItem::kValNamed;
      item.name = first.text;
    } else if (first.kind == Tok::kIdent && ix.size() >= 3 &&
               t[ix[1]].text == "=" && t[ix[2]].text == "&") {
      item.kind = CaptureItem::kInitAddr;
      item.name = first.text;
    }
    items.push_back(item);
  }
  return items;
}

// True if tokens[i] ('[') introduces a lambda rather than a subscript.
bool IsLambdaIntro(const std::vector<Token>& t, size_t i, size_t scope_begin) {
  size_t p = PrevTok(t, i);
  if (p != kNone && p >= scope_begin) {
    const Token& pt = t[p];
    if (pt.kind == Tok::kIdent) {
      static const std::set<std::string>* kPre = new std::set<std::string>{
          "return", "co_return", "co_yield", "throw", "else", "do"};
      if (kPre->count(pt.text) == 0) return false;  // subscript on an ident
    } else if (pt.kind == Tok::kNumber || pt.kind == Tok::kString ||
               pt.text == ")" || pt.text == "]") {
      return false;
    }
  }
  size_t close = MatchDelim(t, i);
  if (close >= t.size()) return false;
  size_t n = close + 1;
  while (n < t.size() && t[n].kind == Tok::kPreproc) ++n;
  if (n >= t.size()) return false;
  const std::string& s = t[n].text;
  return s == "(" || s == "{" || s == "mutable" || s == "->" || s == "noexcept";
}

// Ordered by severity: a lambda that flows to several consumers is reported
// against the strongest context (a proven sink wins over an unknown callee).
enum class Ctx { kIgnore, kUnproven, kDeferred };

Ctx CtxForCallee(const std::string& callee, const ProjectIndex& index) {
  if (callee.empty()) return Ctx::kIgnore;
  if (callee == "ScheduleAt" || callee == "ScheduleAfter" ||
      index.smallfn_param_fns.count(callee) > 0) {
    return Ctx::kDeferred;
  }
  if (IsSyncCallee(callee)) return Ctx::kIgnore;
  return Ctx::kUnproven;
}

struct LambdaSite {
  size_t intro = 0;
  int line = 0;
  std::string callee;             // effective enclosing callee at the literal
  bool assigned_smallfn = false;  // `= [..]` into a SmallFn member or local
  std::string named;              // `auto name = [..]` local, "" otherwise
  std::vector<CaptureItem> captures;
};

class DeferredCaptureRule : public Rule {
 public:
  std::string_view id() const override { return "deferred-capture"; }

  void Check(const FileCtx& f, const ProjectIndex& index,
             std::vector<Finding>* out) const override {
    // Production scope is src/ (bench/tests drive the simulator to
    // completion inside the capturing scope); bare fixture names still lint.
    if (f.path.find('/') != std::string::npos && f.path.rfind("src/", 0) != 0) {
      return;
    }
    for (const FuncDecl& fn : f.structure.functions) {
      if (fn.has_body) AnalyzeFunction(f, index, fn, out);
    }
  }

 private:
  void AnalyzeFunction(const FileCtx& f, const ProjectIndex& index,
                       const FuncDecl& fn, std::vector<Finding>* out) const {
    const auto& t = f.lexed.tokens;
    std::map<std::string, size_t> ptr_locals;  // name -> decl token index
    std::vector<LambdaSite> lambdas;
    std::map<std::string, size_t> named;          // lambda local -> site index
    std::map<size_t, Ctx> named_ctx;              // site index -> strongest use
    std::map<size_t, std::string> named_callee;   // site index -> that callee

    std::vector<std::string> stack;  // enclosing callee per open paren
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (t[i].kind == Tok::kPreproc) continue;
      const std::string& s = t[i].text;
      if (t[i].kind == Tok::kPunct) {
        if (s == "(") {
          size_t p = PrevTok(t, i);
          std::string callee;
          if (p != kNone && p > fn.body_begin && t[p].kind == Tok::kIdent &&
              !IsStmtKeyword(t[p].text)) {
            callee = t[p].text;
          }
          stack.push_back(callee);
        } else if (s == ")") {
          if (!stack.empty()) stack.pop_back();
        } else if (s == "[" && IsLambdaIntro(t, i, fn.body_begin)) {
          LambdaSite site;
          site.intro = i;
          site.line = t[i].line;
          site.callee = EffectiveCallee(stack);
          site.captures = ParseCaptures(t, i, MatchDelim(t, i));
          ClassifyAssignment(t, index, fn.body_begin, &site);
          if (!site.named.empty()) named[site.named] = lambdas.size();
          lambdas.push_back(site);
        }
        continue;
      }
      if (t[i].kind != Tok::kIdent) continue;
      auto use = named.find(s);
      if (use != named.end()) {
        if (IsTok(t, i + 1, "(")) continue;  // direct invocation: synchronous
        Ctx ctx;
        std::string callee;
        size_t p = PrevTok(t, i);
        if (p != kNone && t[p].text == "=" && StoresIntoSmallFn(t, index, p)) {
          ctx = Ctx::kDeferred;
          callee = "a SmallFn slot";
        } else {
          callee = EffectiveCallee(stack);
          ctx = CtxForCallee(callee, index);
        }
        auto& strongest = named_ctx[use->second];
        if (static_cast<int>(ctx) > static_cast<int>(strongest)) {
          strongest = ctx;
          named_callee[use->second] = callee;
        }
        continue;
      }
      // Address-of local: `p = &x` (declaration or assignment).
      if (IsTok(t, i + 1, "=") && IsTok(t, i + 2, "&") && IsIdentTok(t, i + 3)) {
        ptr_locals.emplace(s, i);
        continue;
      }
      // Iterator local: `it = <chain>.begin()` and friends.
      if (IsTok(t, i + 1, "=") && IsIteratorInit(t, i + 2, fn.body_end)) {
        ptr_locals.emplace(s, i);
      }
    }

    for (size_t li = 0; li < lambdas.size(); ++li) {
      const LambdaSite& site = lambdas[li];
      Ctx ctx = Ctx::kIgnore;
      std::string callee = site.callee;
      if (site.assigned_smallfn) {
        ctx = Ctx::kDeferred;
        callee = "a SmallFn slot";
      } else if (!site.named.empty()) {
        auto it = named_ctx.find(li);
        if (it != named_ctx.end()) {
          ctx = it->second;
          callee = named_callee[li];
        }
      } else {
        ctx = CtxForCallee(site.callee, index);
      }
      if (ctx == Ctx::kIgnore) continue;
      Emit(f, site, ctx, callee, ptr_locals, out);
    }
  }

  // Sets site->assigned_smallfn / site->named from the `name = [` context.
  void ClassifyAssignment(const std::vector<Token>& t, const ProjectIndex& index,
                          size_t scope_begin, LambdaSite* site) const {
    size_t p = PrevTok(t, site->intro);
    if (p == kNone || p <= scope_begin || t[p].text != "=") return;
    size_t q = PrevTok(t, p);
    if (q == kNone || q <= scope_begin || t[q].kind != Tok::kIdent) return;
    const std::string& name = t[q].text;
    if (index.smallfn_member_names.count(name) > 0) {
      site->assigned_smallfn = true;
      return;
    }
    size_t r = PrevTok(t, q);
    if (r == kNone || t[r].kind != Tok::kIdent) return;
    if (t[r].text == "SmallFn" || t[r].text == "EventFn") {
      site->assigned_smallfn = true;
    } else if (t[r].text == "auto") {
      site->named = name;
    }
  }

  // `= <chain ending in .begin()/.find()/...>` before the site's statement
  // ends.
  bool IsIteratorInit(const std::vector<Token>& t, size_t i, size_t limit) const {
    static const std::set<std::string>* kIter = new std::set<std::string>{
        "begin", "end", "rbegin", "rend", "cbegin", "cend",
        "find", "lower_bound", "upper_bound"};
    for (size_t k = i; k < limit && k < i + 24; ++k) {
      if (t[k].kind == Tok::kPreproc) continue;
      const std::string& s = t[k].text;
      if (s == ";" || s == "{" || s == "}") return false;
      if ((s == "." || s == "->") && IsIdentTok(t, k + 1) &&
          kIter->count(t[k + 1].text) > 0 && IsTok(t, k + 2, "(")) {
        return true;
      }
    }
    return false;
  }

  // True when `=` at index p assigns into a SmallFn member/local (used for
  // `slot_ = deliver;` flows of named lambdas).
  bool StoresIntoSmallFn(const std::vector<Token>& t, const ProjectIndex& index,
                         size_t p) const {
    size_t q = PrevTok(t, p);
    if (q == kNone || t[q].kind != Tok::kIdent) return false;
    if (index.smallfn_member_names.count(t[q].text) > 0) return true;
    size_t r = PrevTok(t, q);
    return r != kNone && t[r].kind == Tok::kIdent &&
           (t[r].text == "SmallFn" || t[r].text == "EventFn");
  }

  void Emit(const FileCtx& f, const LambdaSite& site, Ctx ctx,
            const std::string& callee,
            const std::map<std::string, size_t>& ptr_locals,
            std::vector<Finding>* out) const {
    const std::string via =
        callee.empty() ? "a deferred callback" : "'" + callee + "'";
    for (const CaptureItem& cap : site.captures) {
      switch (cap.kind) {
        case CaptureItem::kRefDefault:
        case CaptureItem::kRefNamed:
        case CaptureItem::kInitAddr: {
          std::string what = cap.kind == CaptureItem::kRefDefault
                                 ? "by-reference default ([&])"
                                 : "'" + cap.name + "' by reference";
          if (ctx == Ctx::kDeferred) {
            out->push_back(
                {f.path, site.line, std::string(id()),
                 "lambda handed to " + via + " captures " + what +
                     " — the callback fires after the enclosing scope has "
                     "unwound, so the capture dangles; capture the needed "
                     "state by value (or an owning index/handle)"});
          } else {
            out->push_back(
                {f.path, site.line, std::string(id()),
                 "lambda with " + what + " capture passed to " + via +
                     ", which ds_lint cannot prove invokes it synchronously — "
                     "if the callee stores the callback the capture dangles; "
                     "capture by value or add an audited "
                     "allow(deferred-capture, ...)"});
          }
          break;
        }
        case CaptureItem::kValNamed:
          if (ctx == Ctx::kDeferred && ptr_locals.count(cap.name) > 0 &&
              ptr_locals.at(cap.name) < site.intro) {
            out->push_back(
                {f.path, site.line, std::string(id()),
                 "deferred callback captures pointer/iterator local '" +
                     cap.name + "' by value — the pointer is copied but the "
                     "pointee dies with the enclosing scope before the event "
                     "fires"});
          }
          break;
        case CaptureItem::kThis:
          if (ctx == Ctx::kDeferred && f.is_header) {
            out->push_back(
                {f.path, site.line, std::string(id()),
                 "deferred callback in a header captures 'this' — a library "
                 "object's owner can destroy it before the event fires; pair "
                 "the capture with an epoch/generation guard (see "
                 "sim::PeriodicTask) and document it with an audited "
                 "allow(deferred-capture, ...)"});
          }
          break;
        case CaptureItem::kOther:
          break;
      }
    }
  }
};

}  // namespace

void IndexDeferredSinks(const FileCtx& file, ProjectIndex* index) {
  for (const MemberDecl& m : file.structure.members) {
    if (m.smallfn) index->smallfn_member_names.insert(m.name);
  }
  for (const FuncDecl& fn : file.structure.functions) {
    if (fn.has_smallfn_param) index->smallfn_param_fns.insert(fn.name);
  }
}

std::vector<std::unique_ptr<Rule>> MakeDeferredRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<DeferredCaptureRule>());
  return rules;
}

}  // namespace ds_lint
