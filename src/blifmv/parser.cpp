// Line-oriented BLIF-MV parser.
#include "blifmv/blifmv.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

namespace hsis::blifmv {

ParseException::ParseException(ParseError e)
    : err_(std::move(e)),
      text_("blifmv parse error (line " + std::to_string(err_.line) +
            "): " + err_.message) {}

const VarDecl* Model::declOf(const std::string& sig) const {
  auto it = varDecls.find(sig);
  return it == varDecls.end() ? nullptr : &it->second;
}

int Model::lineOf(const std::string& sig) const {
  auto it = lineInfo.find(sig);
  return it == lineInfo.end() ? 0 : it->second;
}

const Model* Design::findModel(const std::string& name) const {
  for (const Model& m : models)
    if (m.name == name) return &m;
  return nullptr;
}

const Model& Design::root() const {
  const Model* m = findModel(rootName);
  if (m == nullptr) throw std::runtime_error("blifmv: no root model " + rootName);
  return *m;
}

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseException(ParseError{msg, line});
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  // Parenthesized value sets are one token even if they contain commas;
  // whitespace inside parens is not expected from our writers but tolerated.
  int depth = 0;
  for (char c : line) {
    if (depth == 0 && std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
      continue;
    }
    if (c == '(') ++depth;
    if (c == ')') --depth;
    cur.push_back(c);
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

RowEntry parseEntry(const std::string& tok, int line) {
  if (tok == "-") return RowEntry{RowEntry::Kind::Any, {}, {}};
  if (tok.size() >= 2 && tok.front() == '=') {
    return RowEntry{RowEntry::Kind::Equal, {}, tok.substr(1)};
  }
  if (tok.size() >= 2 && tok.front() == '!') {
    return RowEntry{RowEntry::Kind::Complement, {tok.substr(1)}, {}};
  }
  if (tok.size() >= 2 && tok.front() == '(' && tok.back() == ')') {
    auto vals = splitCommas(tok.substr(1, tok.size() - 2));
    if (vals.empty()) fail(line, "empty value set " + tok);
    return RowEntry{RowEntry::Kind::Values, std::move(vals), {}};
  }
  return RowEntry{RowEntry::Kind::Values, {tok}, {}};
}

}  // namespace

Design parse(const std::string& text) {
  Design design;
  Model* model = nullptr;       // current model
  Table* table = nullptr;       // current .table collecting rows
  Latch* resetLatch = nullptr;  // current .reset collecting rows

  std::istringstream in(text);
  std::string raw;
  int lineNo = 0;
  std::string pending;  // handles trailing-backslash continuations

  auto finishDirectiveContext = [&] {
    table = nullptr;
    resetLatch = nullptr;
  };

  while (std::getline(in, raw)) {
    ++lineNo;
    // Strip comments.
    size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    // Continuation.
    if (!raw.empty() && raw.back() == '\\') {
      pending += raw.substr(0, raw.size() - 1) + " ";
      continue;
    }
    std::string line = pending + raw;
    pending.clear();

    std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;

    const std::string& head = toks[0];
    if (head[0] == '.') {
      if (head == ".model") {
        if (toks.size() != 2) fail(lineNo, ".model needs a name");
        design.models.emplace_back();
        model = &design.models.back();
        model->name = toks[1];
        if (design.rootName.empty()) design.rootName = model->name;
        finishDirectiveContext();
        continue;
      }
      if (model == nullptr) fail(lineNo, head + " before .model");
      if (head == ".inputs") {
        model->inputs.insert(model->inputs.end(), toks.begin() + 1, toks.end());
        finishDirectiveContext();
      } else if (head == ".outputs") {
        model->outputs.insert(model->outputs.end(), toks.begin() + 1, toks.end());
        finishDirectiveContext();
      } else if (head == ".mv") {
        if (toks.size() < 3) fail(lineNo, ".mv needs names and a size");
        std::vector<std::string> names = splitCommas(toks[1]);
        // Allow ".mv a, b 4": merge tokens until one parses as a number.
        size_t k = 2;
        while (k < toks.size() &&
               toks[k].find_first_not_of("0123456789") != std::string::npos) {
          auto more = splitCommas(toks[k]);
          names.insert(names.end(), more.begin(), more.end());
          ++k;
        }
        if (k >= toks.size()) fail(lineNo, ".mv missing domain size");
        unsigned long size = std::stoul(toks[k]);
        if (size < 1) fail(lineNo, ".mv domain must be >= 1");
        VarDecl decl;
        decl.domain = static_cast<uint32_t>(size);
        decl.valueNames.assign(toks.begin() + static_cast<long>(k) + 1, toks.end());
        if (!decl.valueNames.empty() && decl.valueNames.size() != decl.domain)
          fail(lineNo, ".mv value-name count mismatch");
        for (const std::string& n : names) model->varDecls[n] = decl;
        finishDirectiveContext();
      } else if (head == ".latch") {
        if (toks.size() != 3) fail(lineNo, ".latch needs input and output");
        model->latches.push_back(Latch{toks[1], toks[2], {}});
        finishDirectiveContext();
      } else if (head == ".reset") {
        if (toks.size() != 2) fail(lineNo, ".reset needs a latch output");
        resetLatch = nullptr;
        for (Latch& l : model->latches) {
          if (l.output == toks[1]) resetLatch = &l;
        }
        if (resetLatch == nullptr)
          fail(lineNo, ".reset for unknown latch " + toks[1]);
        table = nullptr;
      } else if (head == ".table" || head == ".names") {
        if (toks.size() < 2) fail(lineNo, ".table needs at least an output");
        model->tables.emplace_back();
        table = &model->tables.back();
        table->inputs.assign(toks.begin() + 1, toks.end() - 1);
        table->output = toks.back();
        resetLatch = nullptr;
      } else if (head == ".default") {
        if (table == nullptr) fail(lineNo, ".default outside a table");
        if (toks.size() != 2) fail(lineNo, ".default needs one value");
        table->defaultValue = toks[1];
      } else if (head == ".lineinfo") {
        if (toks.size() != 3) fail(lineNo, ".lineinfo needs signal and line");
        model->lineInfo[toks[1]] = std::stoi(toks[2]);
        finishDirectiveContext();
      } else if (head == ".subckt") {
        if (toks.size() < 3) fail(lineNo, ".subckt needs model and instance");
        Subckt sc;
        sc.modelName = toks[1];
        sc.instanceName = toks[2];
        for (size_t i = 3; i < toks.size(); ++i) {
          size_t eq = toks[i].find('=');
          if (eq == std::string::npos)
            fail(lineNo, ".subckt connection must be formal=actual: " + toks[i]);
          sc.connections.emplace_back(toks[i].substr(0, eq), toks[i].substr(eq + 1));
        }
        model->subckts.push_back(std::move(sc));
        finishDirectiveContext();
      } else if (head == ".end") {
        model = nullptr;
        finishDirectiveContext();
      } else {
        fail(lineNo, "unknown directive " + head);
      }
      continue;
    }

    // Data row: belongs to the open .table or .reset.
    if (resetLatch != nullptr) {
      if (toks.size() != 1) fail(lineNo, ".reset rows have one value");
      // A parenthesized set "(v1,v2)" contributes several initial values.
      const std::string& tok = toks[0];
      if (tok.size() >= 2 && tok.front() == '(' && tok.back() == ')') {
        for (std::string& v : splitCommas(tok.substr(1, tok.size() - 2)))
          resetLatch->resetValues.push_back(std::move(v));
      } else {
        resetLatch->resetValues.push_back(tok);
      }
      continue;
    }
    if (table != nullptr) {
      Row row;
      for (const std::string& t : toks) row.entries.push_back(parseEntry(t, lineNo));
      if (row.entries.size() != table->inputs.size() + 1)
        fail(lineNo, "row width " + std::to_string(row.entries.size()) +
                         " does not match table arity " +
                         std::to_string(table->inputs.size() + 1));
      table->rows.push_back(std::move(row));
      continue;
    }
    fail(lineNo, "data row outside .table/.reset: " + line);
  }
  if (!pending.empty()) fail(lineNo, "dangling line continuation");
  if (design.models.empty()) fail(lineNo, "no .model found");
  if (model != nullptr) fail(lineNo, "model " + model->name + " has no .end");
  return design;
}

}  // namespace hsis::blifmv
