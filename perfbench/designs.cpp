#include "designs.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string idx(const char* prefix, int i) {
  return prefix + std::to_string(i);
}

/// "a & b & c" over `terms` (or "1" when empty).
std::string joined(const std::vector<std::string>& terms, const char* op) {
  if (terms.empty()) return "1";
  std::string out = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) out += op + terms[i];
  return out;
}

}  // namespace

std::vector<Design> table1Designs(const std::string& modelsDir) {
  struct Row {
    const char* name;
    const char* file;
    double reached;
    std::vector<Expected> verdicts;
  };
  // Verdicts as pinned by tests/test_models.cpp, in PIF order; reached
  // counts as recorded in EXPERIMENTS.md (Table 1, this reproduction).
  const std::vector<Row> rows = {
      {"philos", "philos", 161,
       {{"mutex", true}, {"no_deadlock", false},
        {"neighbours_exclusive", true}, {"progress_p0", false}}},
      {"pingpong", "pingpong", 4,
       {{"one_owner", true}, {"ping_to_pong", true}, {"pong_to_ping", true},
        {"always_return", true}, {"flight_lands", true}, {"can_rally", true},
        {"never_both", true}, {"pong_infinitely_often", true},
        {"alternation", true}, {"ping_infinitely_often", true},
        {"flight_is_transient", true}, {"eventually_rally", true}}},
      {"gigamax", "gigamax", 44,
       {{"no_two_owners", true}, {"owner_excludes_sharers", true},
        {"can_own", true}, {"can_share_two", true}, {"sharer_safe", true},
        {"can_lose_line", true}, {"owner_can_demote", true},
        {"miss_is_served", true}, {"ownership_rotates", true},
        {"coherence", true}}},
      {"scheduler", "scheduler", 97656250,
       {{"single_token", true}, {"cyclic_order", true},
        {"task0_runs_forever", true}}},
      {"dcnew", "dcnew", 3392,
       {{"bus_exclusive", true}, {"xfer_completes", true},
        {"ch0_served", true}, {"ch1_served", true}, {"ch2_served", false},
        {"totals_move", true}, {"parity_flips", true},
        {"one_transfer_at_a_time", true}}},
      {"2mdlc", "mdlc2", 22316033,
       {{"data_integrity", true}, {"keeps_delivering", true}}},
  };
  std::vector<Design> out;
  for (const Row& r : rows) {
    Design d;
    d.name = r.name;
    d.verilog = slurp(modelsDir + "/" + r.file + ".v");
    d.pif = slurp(modelsDir + "/" + r.file + ".pif");
    d.reached = r.reached;
    d.verdicts = r.verdicts;
    out.push_back(std::move(d));
  }
  return out;
}

Design scheduler(int n, bool wide) {
  if (n < 2) throw std::invalid_argument("scheduler needs at least 2 cells");
  Design d;
  d.name = "scheduler-" + std::to_string(n) + (wide ? "w" : "");
  std::ostringstream v;
  v << "// scheduler-" << n << ": Milner's cyclic scheduler, " << n
    << " cells in a token ring.\nmodule scheduler;\n  wire clk;\n";
  for (int i = 0; i < n; ++i)
    v << "  wire s" << i << ", b" << i << ";\n";
  v << "  cell #(.HASTOKEN(1)) c0(s" << n - 1 << ", s0, b0);\n";
  for (int i = 1; i < n; ++i)
    v << "  cell c" << i << "(s" << i - 1 << ", s" << i << ", b" << i
      << ");\n";
  v << R"V(endmodule

module cell(start_in, start_out, busy);
  parameter HASTOKEN = 0;
  input start_in;
  output start_out, busy;
  wire clk;
  reg token;
  reg running;
  reg [1:0] tmr;
  wire finish;
  assign finish = running && (tmr == 3) && $ND(0, 1);
  wire canstart;
  assign canstart = token && !running;
  assign start_out = canstart;
  assign busy = running;
  always @(posedge clk) begin
    if (canstart) token <= 0;
    else if (start_in) token <= 1;
    if (canstart) begin
      running <= 1;
      tmr <= 0;
    end else if (finish) begin
      running <= 0;
      tmr <= 0;
    end else if (running) begin
      tmr <= tmr + $ND(0, 1);
    end
  end
  initial token = HASTOKEN;
  initial running = 0;
  initial tmr = 0;
endmodule
)V";
  d.verilog = v.str();

  // Exactly one token circulates, and each cell is idle or running with a
  // timer in 0..3: n token positions times 5^n cell states.
  d.reached = n;
  for (int i = 0; i < n; ++i) d.reached *= 5;

  std::ostringstream p;
  p << "fairness {\n";
  for (int i = 0; i < n; ++i) p << "  nostay \"c" << i << ".running=1\";\n";
  p << "}\n";
  std::vector<std::string> pairs;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      pairs.push_back("!(c" + std::to_string(i) + ".token=1 & c" +
                      std::to_string(j) + ".token=1)");
  p << "ctl single_token \"AG (" << joined(pairs, " & ") << ")\";\n";
  // Two fair fixpoints over preimages, which EFD cannot decide.
  p << "ctl token_returns \"AG AF c0.token=1\";\n";
  // Fairness forbids a stalled ring, so cell 0 eventually runs.
  p << "ctl idle_forever \"EG !(c0.running=1)\";\n";
  d.verdicts.push_back({"single_token", true});
  d.verdicts.push_back({"token_returns", true});
  d.verdicts.push_back({"idle_forever", false});
  if (wide) {
    std::vector<std::string> any;
    for (int i = 0; i < n; ++i) any.push_back(idx("c", i) + ".token=1");
    p << "ctl one_token \"AG (" << joined(any, " | ") << ")\";\n";
    // Cell 1 starts while cell 0's task still runs two ticks in.
    p << "ctl no_overlap \"AG !(c0.running=1 & c1.running=1)\";\n";
    p << "ctl last_runs \"EF c" << n - 1 << ".running=1\";\n";
    d.verdicts.push_back({"one_token", true});
    d.verdicts.push_back({"no_overlap", false});
    d.verdicts.push_back({"last_runs", true});
  }
  // LC monitors enumerate every assignment of their guard signals, so
  // they watch two cells rather than the whole ring.
  p << R"V(automaton alternate_01 {
  # starts of cells 0 and 1 alternate, cell 0 first
  state expect0 init;
  state expect1;
  state bad;
  edge expect0 -> expect0 on "!s0 & !s1";
  edge expect0 -> expect1 on "s0 & !s1";
  edge expect0 -> bad on "s1";
  edge expect1 -> expect1 on "!s0 & !s1";
  edge expect1 -> expect0 on "s1 & !s0";
  edge expect1 -> bad on "s0";
  edge bad -> bad on "1";
  accept stay expect0, expect1;
}
automaton task0_runs_forever {
  state wait init;
  state seen;
  edge wait -> seen on "c0.running=1";
  edge wait -> wait on "!(c0.running=1)";
  edge seen -> wait on "!(c0.running=1)";
  edge seen -> seen on "c0.running=1";
  accept buchi seen;
}
)V";
  d.verdicts.push_back({"alternate_01", true});
  d.verdicts.push_back({"task0_runs_forever", true});
  d.pif = p.str();
  return d;
}

Design philos(int n, bool wide) {
  if (n < 3) throw std::invalid_argument("philos needs at least 3 seats");
  Design d;
  d.name = "philos-" + std::to_string(n) + (wide ? "w" : "");
  auto left = [n](int i) { return (i + n - 1) % n; };
  std::ostringstream v;
  v << "// philos-" << n << ": " << n
    << " dining philosophers, left fork first; the deadlock is reachable.\n"
       "module philos;\n  wire clk;\n";
  for (int i = 0; i < n; ++i)
    v << "  wire h" << i << ", g" << i << ", e" << i << ", f" << i
      << "free;\n";
  for (int i = 0; i < n; ++i)
    v << "  assign f" << i << "free = !(h" << i << " || e" << left(i)
      << ");\n";
  for (int i = 0; i < n; ++i)
    v << "  philosopher p" << i << "(f" << i << "free && !g" << left(i)
      << ", f" << (i + 1) % n << "free, h" << i << ", g" << i << ", e" << i
      << ");\n";
  std::vector<std::string> poised;
  for (int i = 0; i < n; ++i) poised.push_back(idx("g", i));
  v << "  wire deadlock;\n  assign deadlock = " << joined(poised, " && ")
    << ";\nendmodule\n"
    << R"V(
module philosopher(leftok, rightfree, holdsleft, poised, eating);
  input leftok, rightfree;
  output holdsleft, poised, eating;
  wire clk;
  enum { thinking, hungry, hasleft, eat } st;
  assign holdsleft = (st == hasleft) || (st == eat);
  assign poised = (st == hasleft);
  assign eating = (st == eat);
  always @(posedge clk) begin
    case (st)
      thinking: if ($ND(0, 1)) st <= hungry;
      hungry:   if (leftok) st <= hasleft;
      hasleft:  if (rightfree) st <= eat;
      eat:      if ($ND(0, 1)) st <= thinking;
    endcase
  end
  initial st = thinking;
endmodule
)V";
  d.verilog = v.str();

  // Every ring configuration is reachable except those where a fork is
  // both philosopher i's left fork (hasleft/eat) and the eating left
  // neighbour's right fork: trace(M^n) over states {thinking, hungry,
  // hasleft, eat}, M[a][b] = 0 iff a = eat and b in {hasleft, eat}.
  using Mat = std::array<std::array<double, 4>, 4>;
  Mat m{};
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) m[a][b] = (a == 3 && b >= 2) ? 0 : 1;
  Mat acc{};
  for (int a = 0; a < 4; ++a) acc[a][a] = 1;
  for (int k = 0; k < n; ++k) {
    Mat next{};
    for (int a = 0; a < 4; ++a)
      for (int b = 0; b < 4; ++b)
        for (int c = 0; c < 4; ++c) next[a][c] += acc[a][b] * m[b][c];
    acc = next;
  }
  d.reached = acc[0][0] + acc[1][1] + acc[2][2] + acc[3][3];

  std::ostringstream p;
  p << "fairness {\n";
  for (int i = 0; i < n; ++i)
    p << "  nostay \"p" << i << ".st=thinking\";\n  nostay \"p" << i
      << ".st=eat\";\n";
  p << "}\n";
  std::vector<std::string> apart, allLeft;
  for (int i = 0; i < n; ++i) {
    const std::string a = idx("p", i), b = idx("p", (i + 1) % n);
    apart.push_back("!(" + a + ".st=eat & " + b + ".st=eat)");
    allLeft.push_back(a + ".st=hasleft");
  }
  p << "ctl mutex \"AG (" << joined(apart, " & ") << ")\";\n";
  p << "ctl no_deadlock \"AG !(" << joined(allLeft, " & ") << ")\";\n";
  p << "ctl eat_ends \"AG (p0.st=eat -> AF !(p0.st=eat))\";\n";
  p << "ctl eats_forever \"EG p0.st=eat\";\n";
  d.verdicts.push_back({"mutex", true});
  d.verdicts.push_back({"no_deadlock", false});
  d.verdicts.push_back({"eat_ends", true});
  d.verdicts.push_back({"eats_forever", false});
  if (wide) {
    p << "ctl can_eat \"EF p0.st=eat\";\n";
    p << "ctl deadlock_reachable \"EF (" << joined(allLeft, " & ")
      << ")\";\n";
    d.verdicts.push_back({"can_eat", true});
    d.verdicts.push_back({"deadlock_reachable", true});
  }
  p << R"V(automaton neighbours_exclusive {
  # philosophers 0 and 1 never eat together (two guard signals, see
  # scheduler's alternate_01)
  state ok init;
  state bad;
  edge ok -> ok on "!(e0 & e1)";
  edge ok -> bad on "e0 & e1";
  edge bad -> bad on "1";
  accept stay ok;
}
automaton progress_p0 {
  state idle init;
  state waiting;
  edge idle -> waiting on "p0.st=hungry";
  edge idle -> idle on "!(p0.st=hungry)";
  edge waiting -> idle on "p0.st=eat";
  edge waiting -> waiting on "!(p0.st=eat)";
  accept buchi idle;
}
)V";
  d.verdicts.push_back({"neighbours_exclusive", true});
  d.verdicts.push_back({"progress_p0", false});
  d.pif = p.str();
  return d;
}

}  // namespace perfbench
