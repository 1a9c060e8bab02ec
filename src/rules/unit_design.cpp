#include "rules/unit_design.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/check.h"
#include "support/strings.h"

namespace certkit::rules {

namespace {

using lex::Tok;
using lex::Token;
using lex::TokenSet;

constexpr TokenSet kScalarTypes = {
    Tok("int"),   Tok("float"), Tok("double"),   Tok("char"),   Tok("long"),
    Tok("short"), Tok("bool"),  Tok("unsigned"), Tok("signed"), Tok("wchar_t")};
constexpr TokenSet kLocalSpecifiers = {Tok("static"), Tok("const"),
                                       Tok("constexpr"), Tok("volatile"),
                                       Tok("register")};
constexpr TokenSet kConstSpecifiers = {Tok("const"), Tok("constexpr")};
constexpr TokenSet kPointerDeclarators = {Tok("*"), Tok("&")};
constexpr TokenSet kInitializerStarts = {Tok("="), Tok("{"), Tok("(")};
constexpr TokenSet kDeclaratorEnds = {Tok(";"), Tok(",")};
// After a file-scope variable's name, these write to it.
constexpr TokenSet kAssignments = {
    Tok("="),  Tok("+="), Tok("-="), Tok("*="),  Tok("/="),  Tok("%="),
    Tok("&="), Tok("|="), Tok("^="), Tok("<<="), Tok(">>="), Tok("++"),
    Tok("--")};

bool IsAllocName(std::string_view name) {
  static const std::unordered_set<std::string_view> kSet = {
      "malloc", "calloc", "realloc", "aligned_alloc",
      "cudaMalloc", "cudaMallocManaged", "cudaMallocHost"};
  return kSet.contains(name);
}

// Tarjan's strongly-connected-components algorithm, iterative to be safe on
// large call graphs.
class TarjanScc {
 public:
  explicit TarjanScc(const std::vector<std::vector<int>>& adj)
      : adj_(adj), n_(static_cast<int>(adj.size())) {
    index_.assign(n_, -1);
    lowlink_.assign(n_, 0);
    on_stack_.assign(n_, false);
  }

  std::vector<std::vector<int>> Run() {
    for (int v = 0; v < n_; ++v) {
      if (index_[v] == -1) Strongconnect(v);
    }
    return sccs_;
  }

 private:
  struct Frame {
    int v;
    std::size_t edge = 0;
  };

  void Strongconnect(int root) {
    std::vector<Frame> frames;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.v;
      if (f.edge == 0) {
        index_[v] = lowlink_[v] = counter_++;
        stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      while (f.edge < adj_[v].size()) {
        const int w = adj_[v][f.edge++];
        if (index_[w] == -1) {
          frames.push_back({w});
          descended = true;
          break;
        }
        if (on_stack_[w]) {
          lowlink_[v] = std::min(lowlink_[v], index_[w]);
        }
      }
      if (descended) continue;
      if (lowlink_[v] == index_[v]) {
        std::vector<int> scc;
        while (true) {
          const int w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          scc.push_back(w);
          if (w == v) break;
        }
        sccs_.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().v;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const std::vector<std::vector<int>>& adj_;
  int n_;
  int counter_ = 0;
  std::vector<int> index_, lowlink_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  std::vector<std::vector<int>> sccs_;
};

// Scans a function body for local declarations, collecting uninitialized
// scalar locals and names that shadow file-scope variables or parameters.
struct LocalScan {
  const ast::SourceFileModel& file;
  const ast::FunctionModel& fn;
  const std::unordered_set<std::string_view>& global_names;
  UnitDesignStats& stats;
  CheckReport& report;
  std::unordered_set<std::string_view> taken = {};  // parameters and locals

  void Run() {
    for (const auto& p : fn.params) taken.insert(p.name);
    lex::ForEachStatementStart(file.lexed.tokens, fn.body_begin, fn.body_end,
                               [this](std::size_t i) { ScanStatement(i); });
  }

  bool At(std::size_t j, TokenSet ids) const {
    return j < fn.body_end && ids.contains(file.lexed.tokens[j].id);
  }
  bool At(std::size_t j, lex::TokenId id) const {
    return j < fn.body_end && file.lexed.tokens[j].id == id;
  }

  // Match: [static|const|unsigned|...]* scalar-type+ declarator-list.
  void ScanStatement(std::size_t j) {
    bool is_const = false;
    for (; At(j, kLocalSpecifiers); ++j) {
      is_const |= kConstSpecifiers.contains(file.lexed.tokens[j].id);
    }
    const std::size_t type_begin = j;
    while (At(j, kScalarTypes)) ++j;
    if (j > type_begin) {
      while (j < fn.body_end) j = ScanDeclarator(j, is_const);
    }
  }

  // One declarator, [*&]* name [array] [= init | {init} | (init)], from j:
  // where the next one starts, or the body's end when the list ends (or
  // this was not a declaration after all).
  std::size_t ScanDeclarator(std::size_t j, bool is_const) {
    std::size_t next = fn.body_end;
    while (At(j, kPointerDeclarators)) ++j;
    if (At(j, lex::kIdIdentifier)) {
      const Token& name = file.lexed.tokens[j];
      const std::size_t past_name = ++j;
      while (At(j, Tok("["))) {  // array extents
        j = lex::MatchingClose(file.lexed.tokens, j, fn.body_end - 1) + 1;
      }
      const bool initialized = At(j, kInitializerStarts);
      if (initialized || At(j, kDeclaratorEnds)) {
        NoteLocal(name, j > past_name, initialized, is_const);
        j = InitializerEnd(j);
        if (At(j, Tok(","))) next = j + 1;
      }
    }
    return next;
  }

  void NoteLocal(const Token& name, bool is_array, bool initialized,
                 bool is_const) {
    if (!initialized && !is_const) {
      ++stats.uninitialized_locals;
      report.Add("UNIT-3", Severity::kRequired, file.path, name.line,
                 "local '" + name.str() + "' in '" + fn.name +
                     (is_array ? "' (array) is not initialized"
                               : "' is not initialized"));
    }
    if (global_names.contains(name.text) || taken.contains(name.text)) {
      ++stats.shadowing_decls;
      report.Add("UNIT-4", Severity::kWarning, file.path, name.line,
                 "local '" + name.str() + "' in '" + fn.name +
                     "' reuses an existing variable name");
    }
    taken.insert(name.text);
  }

  // Past the initializer at j: the ',' or ';' that ends the declarator at
  // depth 0, the ')' or '}' that closes more than it opened (malformed),
  // or the body's end.
  std::size_t InitializerEnd(std::size_t j) const {
    int paren = 0, brace = 0, bracket = 0;
    for (; j < fn.body_end; ++j) {
      const lex::TokenId id = file.lexed.tokens[j].id;
      paren += lex::Nesting(id, Tok("("));
      brace += lex::Nesting(id, Tok("{"));
      bracket += lex::Nesting(id, Tok("["));
      const bool top = paren == 0 && brace == 0 && bracket == 0;
      if ((top && kDeclaratorEnds.contains(id)) || paren < 0 || brace < 0) {
        break;
      }
    }
    return j;
  }
};

// One module's Table 8 pass: the stats and findings it accumulates.
struct UnitDesignPass {
  UnitDesignStats& s;
  CheckReport& rep;
  std::unordered_set<std::string_view> global_names = {};

  // Counts the module's file-scope variables and collects the names of the
  // mutable ones, for shadowing and global-write detection.
  void CollectGlobals(const metrics::ModuleAnalysis& module) {
    for (const auto& file : module.files) {
      for (const auto& g : file.globals) {
        if (g.is_const) {
          ++s.const_globals;
        } else if (!g.is_extern_decl) {
          ++s.mutable_globals;
          rep.Add("UNIT-5", Severity::kWarning, file.path, g.line,
                  "mutable file-scope variable '" + g.qualified_name + "'");
        }
        if (!g.is_const) global_names.insert(g.name);
      }
    }
  }

  void CheckFile(const ast::SourceFileModel& file) {
    s.explicit_casts += std::ssize(file.casts);
    rep.entities_checked += std::ssize(file.functions);
    for (const auto& fn : file.functions) CheckFunction(file, fn);
  }

  // Row 10: recursion.
  void CheckRecursion(const metrics::ModuleAnalysis& module) {
    for (const auto& fm : module.functions) {
      if (fm.is_recursive_direct) {
        ++s.recursive_functions_direct;
        rep.Add("UNIT-10", Severity::kWarning, "", fm.start_line,
                "function '" + fm.name + "' is directly recursive");
      }
    }
    const auto cycles = FindRecursionCycles(module);
    s.recursion_cycles_indirect = std::ssize(cycles);
    for (const auto& cycle : cycles) {
      rep.Add("UNIT-10", Severity::kWarning, "", 0,
              "indirect recursion cycle: " + support::Join(cycle, " -> "));
    }
  }

  void CheckFunction(const ast::SourceFileModel& file,
                     const ast::FunctionModel& fn) {
    ++s.functions_total;
    // Row 1: exits.
    std::int64_t returns = 0;
    for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      returns += file.lexed.tokens[i].id == Tok("return");
      CheckBodyToken(file, fn, i);
    }
    if (returns > 1) {
      ++s.functions_multi_exit;
      rep.Add("UNIT-1", Severity::kWarning, file.path, fn.start_line,
              "function '" + fn.name + "' has " + std::to_string(returns) +
                  " exit points");
    }
    // Row 6: pointer parameters.
    for (const auto& p : fn.params) {
      if (support::Contains(p.type_text, "*")) ++s.pointer_params;
    }
    LocalScan{file, fn, global_names, s, rep}.Run();
  }

  // Rows 9, 6, 2 and 8 at one body token: unconditional jumps, pointer
  // dereferences, allocation sites, and writes to file-scope variables (a
  // global's name followed by an assignment operator).
  void CheckBodyToken(const ast::SourceFileModel& file,
                      const ast::FunctionModel& fn, std::size_t i) {
    const auto& toks = file.lexed.tokens;
    const Token& t = toks[i];
    if (t.id == Tok("goto")) {
      ++s.goto_statements;
      rep.Add("UNIT-9", Severity::kRequired, file.path, t.line,
              "unconditional jump (goto) in '" + fn.name + "'");
    }
    s.pointer_derefs += t.id == Tok("->");
    CheckAllocation(file, fn, i);
    if (t.IsIdentifier() && i + 1 <= fn.body_end &&
        kAssignments.contains(toks[i + 1].id) &&
        global_names.contains(t.text)) {
      ++s.global_write_sites;
      rep.Add("UNIT-8", Severity::kWarning, file.path, t.line,
              "write to file-scope variable '" + t.str() + "' in '" +
                  fn.name + "'");
    }
  }

  // Row 2: allocation sites.
  void CheckAllocation(const ast::SourceFileModel& file,
                       const ast::FunctionModel& fn, std::size_t i) {
    const auto& toks = file.lexed.tokens;
    const Token& t = toks[i];
    if (t.id == Tok("new") &&
        !(i > fn.body_begin && toks[i - 1].id == Tok("operator"))) {
      ++s.dynamic_alloc_sites;
      rep.Add("UNIT-2", Severity::kWarning, file.path, t.line,
              "dynamic object creation (new) in '" + fn.name + "'");
    }
    if (lex::IsCallAt(toks, i, fn.body_end) && IsAllocName(t.text)) {
      ++s.dynamic_alloc_sites;
      rep.Add("UNIT-2", Severity::kWarning, file.path, t.line,
              "dynamic allocation via '" + t.str() + "' in '" + fn.name +
                  "'");
    }
  }
};

}  // namespace

std::vector<std::vector<std::string>> FindRecursionCycles(
    const metrics::ModuleAnalysis& module) {
  // Index function names.
  std::unordered_map<std::string, int> id_of;
  std::vector<std::string> names;
  for (const auto& fm : module.functions) {
    if (id_of.emplace(fm.name, static_cast<int>(names.size())).second) {
      names.push_back(fm.name);
    }
  }
  std::vector<std::vector<int>> adj(names.size());
  for (const auto& fm : module.functions) {
    const int u = id_of.at(fm.name);
    for (const auto& callee : fm.callees) {
      auto it = id_of.find(callee);
      if (it != id_of.end() && it->second != u) {
        adj[u].push_back(it->second);
      }
    }
  }
  TarjanScc tarjan(adj);
  std::vector<std::vector<std::string>> cycles;
  for (const auto& scc : tarjan.Run()) {
    if (scc.size() < 2) continue;
    std::vector<std::string> cycle;
    cycle.reserve(scc.size());
    for (int v : scc) cycle.push_back(names[static_cast<std::size_t>(v)]);
    std::sort(cycle.begin(), cycle.end());
    cycles.push_back(std::move(cycle));
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

UnitDesignResult AnalyzeUnitDesign(const metrics::ModuleAnalysis& module) {
  UnitDesignResult result;
  result.stats.module = module.name;
  result.report.checker = "unit-design";
  UnitDesignPass pass{result.stats, result.report};
  pass.CollectGlobals(module);
  for (const auto& file : module.files) pass.CheckFile(file);
  pass.CheckRecursion(module);
  return result;
}

}  // namespace certkit::rules
