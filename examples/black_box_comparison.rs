//! One document, four black-box rankers, four sets of explanations.
//!
//! §II-A defines the ranker as a black box; this example makes that
//! concrete by explaining the same fake-news article under BM25,
//! query-likelihood, BM25+RM3 pseudo-relevance feedback, and the
//! neural-sim hybrid — showing how the explanations shift with the model.
//!
//! ```sh
//! cargo run --example black_box_comparison
//! ```

use credence_core::{explain_sentence_removal, SentenceRemovalConfig};
use credence_corpus::covid_demo_corpus;
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_rank::{
    rank_corpus, Bm25Ranker, NeuralSimConfig, NeuralSimRanker, QlSmoothing, QueryLikelihoodRanker,
    Ranker, Rm3Config, Rm3Ranker,
};
use credence_text::Analyzer;

fn main() {
    let demo = covid_demo_corpus();
    let index = InvertedIndex::build(demo.docs.clone(), Analyzer::english());
    let fake = DocId(demo.fake_news as u32);

    let bm25 = Bm25Ranker::new(&index, Bm25Params::default());
    let ql = QueryLikelihoodRanker::new(&index, QlSmoothing::default());
    let rm3 = Rm3Ranker::new(&index, Rm3Config::default());
    println!("training the neural-sim embedding space...");
    let neural = NeuralSimRanker::train(&index, NeuralSimConfig::default());
    let models: Vec<&dyn Ranker> = vec![&bm25, &ql, &rm3, &neural];

    println!(
        "\nexplaining document [{}] for {:?} under four models:\n",
        index.document(fake).unwrap().name,
        demo.query
    );
    for model in models {
        let ranking = rank_corpus(model, demo.query);
        let rank = ranking.rank_of(fake).expect("always ranked");
        let k = rank.max(demo.k);
        let result = explain_sentence_removal(
            model,
            demo.query,
            k,
            fake,
            &SentenceRemovalConfig::default(),
            &ranking,
            None,
        )
        .expect("explainable");
        print!("{:<12} rank {:>2}/{k}  ", model.name(), rank);
        match result.explanations.first() {
            None => println!("no counterfactual within budget"),
            Some(e) => println!(
                "counterfactual: remove sentences {:?} -> rank {} ({} candidates tried)",
                e.removed, e.new_rank, e.candidates_evaluated
            ),
        }
    }

    println!(
        "\nthe *same* algorithm explains every model — only the ranks and the\n\
         discovered perturbations change, because they are properties of the model."
    );
}
