// Interactive phrase explorer: the "analyst drill-down" loop the paper's
// introduction motivates, as a small REPL. Load your own corpus (one
// document per line, optionally "facets<TAB>body") or generate a synthetic
// one, then type queries and compare algorithms interactively.
//
// Usage:
//   phrase_explorer                     # 4000-doc synthetic newswire corpus
//   phrase_explorer corpus.txt          # plain one-doc-per-line file
//   phrase_explorer corpus.tsv faceted  # "facets<TAB>body" lines
//
// REPL commands:
//   <words>            OR query with the default algorithm (SMJ)
//   and <words>        AND query
//   or <words>         OR query
//   algo <name>        switch algorithm: exact | gm | simitsis | nra | smj
//   k <n>              result count
//   frac <f>           partial-list fraction (rebuilds SMJ lists)
//   save <path>        persist the engine as one index file
//   quit

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "core/result_filter.h"
#include "text/corpus_io.h"
#include "text/synthetic.h"

using namespace phrasemine;

namespace {

Algorithm ParseAlgorithm(const std::string& name, Algorithm fallback) {
  if (name == "exact") return Algorithm::kExact;
  if (name == "gm") return Algorithm::kGm;
  if (name == "simitsis") return Algorithm::kSimitsis;
  if (name == "nra") return Algorithm::kNra;
  if (name == "nradisk") return Algorithm::kNraDisk;
  if (name == "smj") return Algorithm::kSmj;
  std::printf("unknown algorithm '%s'\n", name.c_str());
  return fallback;
}

void RunQuery(MiningEngine& engine, const std::string& words,
              QueryOperator op, Algorithm algorithm,
              const MineOptions& options) {
  auto query = engine.ParseQuery(words, op);
  if (!query.ok()) {
    std::printf("  %s\n", query.status().ToString().c_str());
    return;
  }
  MineResult result = engine.Mine(query.value(), algorithm, options);
  std::printf("  [%s, %s, %.3f ms%s]\n", AlgorithmName(algorithm),
              QueryOperatorName(op), result.TotalMs(),
              result.disk_ms > 0 ? " incl. simulated disk" : "");
  if (result.phrases.empty()) {
    std::printf("  (no results)\n");
    return;
  }
  for (const MinedPhrase& p : result.phrases) {
    std::printf("  %-44s %.3f\n", engine.PhraseText(p.phrase).c_str(),
                p.interestingness);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Corpus corpus;
  if (argc > 1) {
    const bool faceted = argc > 2 && std::string(argv[2]) == "faceted";
    auto loaded = faceted ? CorpusReader::FromFacetedFile(argv[1])
                          : CorpusReader::FromPlainFile(argv[1]);
    if (!loaded.ok()) {
      std::printf("failed to load %s: %s\n", argv[1],
                  loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded.value());
  } else {
    std::printf("no corpus file given; generating a synthetic one...\n");
    SyntheticCorpusOptions options = SyntheticCorpusGenerator::ReutersLike();
    options.num_docs = 4000;
    SyntheticCorpusGenerator generator(options);
    corpus = generator.Generate();
  }

  std::printf("indexing %zu documents...\n", corpus.size());
  MiningEngine engine = MiningEngine::Build(std::move(corpus));
  std::printf("ready: %zu phrases, %zu terms. Type a query ('quit' exits).\n",
              engine.dict().size(), engine.corpus().vocab().size());

  Algorithm algorithm = Algorithm::kSmj;
  MineOptions options;
  options.k = 5;

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream stream(line);
    std::string head;
    if (!(stream >> head)) continue;
    std::string rest;
    std::getline(stream, rest);

    if (head == "quit" || head == "exit") break;
    if (head == "algo") {
      std::istringstream r(rest);
      std::string name;
      r >> name;
      algorithm = ParseAlgorithm(name, algorithm);
      continue;
    }
    if (head == "k") {
      options.k = static_cast<std::size_t>(std::atoll(rest.c_str()));
      continue;
    }
    if (head == "frac") {
      const double fraction = std::atof(rest.c_str());
      engine.SetSmjFraction(fraction);
      options.list_fraction = fraction;
      std::printf("  partial-list fraction = %.2f\n", fraction);
      continue;
    }
    if (head == "save") {
      std::istringstream r(rest);
      std::string path;
      r >> path;
      Status s = engine.SaveToFile(path);
      std::printf("  %s\n", s.ToString().c_str());
      continue;
    }
    if (head == "and") {
      RunQuery(engine, rest, QueryOperator::kAnd, algorithm, options);
      continue;
    }
    if (head == "or") {
      RunQuery(engine, rest, QueryOperator::kOr, algorithm, options);
      continue;
    }
    RunQuery(engine, line, QueryOperator::kOr, algorithm, options);
  }
  return 0;
}
