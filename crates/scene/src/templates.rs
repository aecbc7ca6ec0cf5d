//! Scene templates: parametric generators for the scene families used throughout the paper.
//!
//! Each template builds a [`Scene`] whose *parameters* (scores, counts, attributes, text)
//! are drawn from a seeded RNG, so a corpus of hundreds of distinct-but-plausible clips can
//! be generated deterministically. The families mirror the paper's running examples:
//!
//! * [`basketball_game`] — the Figure 4 / Figure 10 scenario (scoreboard, jersey logo,
//!   spectators, a player covering his mouth);
//! * [`dog_park`] — the Figure 5 scenario (dog ears, grass implying the season);
//! * [`lecture_slides`] — text-rich content, DeViBench's dominant category;
//! * cooking shows ([`TemplateKind::Cooking`]) — attribute/action-heavy content;
//! * [`street_scene`] — counting/spatial content with small text (license plates).

use crate::concept::Concept;
use crate::fact::{FactCategory, SceneFact};
use crate::geometry::Rect;
use crate::object::SceneObject;
use crate::scene::Scene;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The canvas used by all templates: 1080p, the paper's example capture resolution.
const CANVAS_W: u32 = 1920;
/// Canvas height, see [`CANVAS_W`].
const CANVAS_H: u32 = 1080;

/// Identifiers of the built-in templates, in corpus rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Basketball game with scoreboard, players, spectators.
    Basketball,
    /// Dog in a park with grass and trees.
    DogPark,
    /// Lecture with a text slide and a lecturer.
    Lecture,
    /// Cooking show with chef, pan, ingredients and a recipe card.
    Cooking,
    /// Street scene with cars, pedestrians and a traffic light.
    Street,
}

impl TemplateKind {
    /// All template kinds in rotation order.
    pub const ALL: [TemplateKind; 5] = [
        TemplateKind::Basketball,
        TemplateKind::DogPark,
        TemplateKind::Lecture,
        TemplateKind::Cooking,
        TemplateKind::Street,
    ];

    /// Builds a scene of this kind from a seed.
    pub fn build(self, seed: u64) -> Scene {
        match self {
            TemplateKind::Basketball => basketball_game(seed),
            TemplateKind::DogPark => dog_park(seed),
            TemplateKind::Lecture => lecture_slides(seed),
            TemplateKind::Cooking => cooking_show(seed),
            TemplateKind::Street => street_scene(seed),
        }
    }
}

fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream))
}

fn pick<'a, T>(r: &mut ChaCha8Rng, items: &'a [T]) -> &'a T {
    &items[r.gen_range(0..items.len())]
}

/// Builds numeric distractors around a correct integer answer.
fn numeric_distractors(r: &mut ChaCha8Rng, answer: i64) -> Vec<String> {
    let mut out = Vec::new();
    let mut used = vec![answer];
    while out.len() < 3 {
        let delta = r.gen_range(1..=4) * if r.gen_bool(0.5) { 1 } else { -1 };
        let v = (answer + delta).max(0);
        if !used.contains(&v) {
            used.push(v);
            out.push(v.to_string());
        }
    }
    out
}

/// Basketball game: the paper's Figure 4 / Figure 10 scenario.
///
/// Contains a scoreboard (text-rich), a star player with a jersey logo (attribute), a player
/// covering his mouth (coarse action), and a row of spectators (counting).
pub fn basketball_game(seed: u64) -> Scene {
    let mut r = rng(seed, 1);
    let mut s = Scene::new("basketball-game", CANVAS_W, CANVAS_H).with_background(
        0.35,
        0.15,
        vec![
            (Concept::new("court"), 0.8),
            (Concept::new("basketball-game"), 0.6),
        ],
    );

    let home: i64 = r.gen_range(55..115);
    let away: i64 = r.gen_range(55..115);
    let score_text = format!("HOME {home} - {away} AWAY");
    let scoreboard_id = s.add_object(
        SceneObject::new(1, "scoreboard", Rect::new(60, 40, 420, 110))
            .with_concept("scoreboard", 1.0)
            .with_concept("score", 0.9)
            .with_concept("text", 0.8)
            .with_concept("number", 0.7)
            .with_detail(0.92)
            .with_texture(0.75)
            .with_text(score_text.clone())
            .with_attribute("home-score", home.to_string())
            .with_attribute("away-score", away.to_string()),
    );

    let logos = ["FALCON", "ORBIT", "NIMBUS", "VERTEX", "PIONEER"];
    let logo = pick(&mut r, &logos).to_string();
    let jersey_colors = ["red", "blue", "white", "green", "yellow"];
    let jersey_color = pick(&mut r, &jersey_colors).to_string();
    let player_id = s.add_object(
        SceneObject::new(2, "star-player", Rect::new(800, 300, 280, 620))
            .with_concept("player", 1.0)
            .with_concept("person", 0.9)
            .with_concept("jersey", 0.7)
            .with_detail(0.35)
            .with_texture(0.55)
            .with_motion(0.7, (190.0, 40.0))
            .with_attribute("jersey-color", jersey_color.clone())
            .with_attribute("action", "dribbling the ball"),
    );
    let logo_id = s.add_object(
        SceneObject::new(3, "jersey-logo", Rect::new(880, 420, 90, 60))
            .with_concept("logo", 1.0)
            .with_concept("jersey", 0.8)
            .with_concept("text", 0.7)
            .with_concept("brand", 0.7)
            .with_detail(0.88)
            .with_texture(0.6)
            .with_motion(0.7, (190.0, 40.0))
            .with_text(logo.clone())
            .with_attribute("brand", logo.clone()),
    );

    let covering_id = s.add_object(
        SceneObject::new(4, "player-covering-mouth", Rect::new(1350, 350, 260, 600))
            .with_concept("player", 0.9)
            .with_concept("person", 0.9)
            .with_concept("mouth", 0.7)
            .with_concept("face", 0.6)
            .with_detail(0.3)
            .with_texture(0.5)
            .with_motion(0.4, (-60.0, 0.0))
            .with_attribute("action", "covering his mouth"),
    );

    let spectators: i64 = r.gen_range(3..9);
    let spectators_id = s.add_object(
        SceneObject::new(5, "spectators", Rect::new(200, 170, 1500, 140))
            .with_concept("spectators", 1.0)
            .with_concept("crowd", 0.9)
            .with_concept("person", 0.6)
            .with_detail(0.8)
            .with_texture(0.7)
            .with_motion(0.1, (0.0, 0.0))
            .with_attribute("count", spectators.to_string()),
    );

    // --- facts ---
    s.add_fact(
        SceneFact::new(
            FactCategory::TextRich,
            "Could you tell me the present score of the game?",
            format!("{home} - {away}"),
            vec![scoreboard_id],
            0.55,
        )
        .with_distractors(vec![
            format!("{} - {}", home - 2, away),
            format!("{} - {}", home, away + 3),
            format!("{} - {}", home + 1, away - 1),
        ])
        .with_query_concepts(["score", "scoreboard", "basketball-game"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "What logo is seen on the jersey of the player covering his mouth?",
            logo.clone(),
            vec![logo_id, covering_id],
            0.85,
        )
        .with_distractors(
            logos
                .iter()
                .filter(|l| **l != logo)
                .take(3)
                .map(|l| l.to_string()),
        )
        .with_query_concepts(["logo", "jersey", "player"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ActionPerception,
            "What is the player on the right doing?",
            "He is covering his mouth",
            vec![covering_id],
            0.2,
        )
        .with_distractors([
            "He is shooting the ball",
            "He is tying his shoes",
            "He is arguing with the referee",
        ])
        .with_query_concepts(["player", "action"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::Counting,
            "How many spectators can be seen in the front row?",
            spectators.to_string(),
            vec![spectators_id],
            0.8,
        )
        .with_distractors(numeric_distractors(&mut r, spectators))
        .with_query_concepts(["spectators", "counting", "crowd"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "What color is the star player's jersey?",
            jersey_color.clone(),
            vec![player_id],
            0.3,
        )
        .with_distractors(
            jersey_colors
                .iter()
                .filter(|c| **c != jersey_color)
                .take(3)
                .map(|c| c.to_string()),
        )
        .with_query_concepts(["jersey", "color", "player"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ObjectPerception,
            "Is there a scoreboard visible in the video?",
            "Yes",
            vec![scoreboard_id],
            0.1,
        )
        .with_distractors(["No", "Only a shot clock", "Only an advertisement board"])
        .with_query_concepts(["scoreboard"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::SpatialUnderstanding,
            "Where is the scoreboard relative to the players?",
            "Above and to the left",
            vec![scoreboard_id, player_id],
            0.25,
        )
        .with_distractors([
            "Below the players",
            "To the right of the players",
            "Behind the spectators",
        ])
        .with_query_concepts(["scoreboard", "position", "spatial"]),
    );
    s
}

/// Dog in a park: the paper's Figure 5 scenario (ear type, season inference from grass).
pub fn dog_park(seed: u64) -> Scene {
    let mut r = rng(seed, 2);
    let mut s = Scene::new("dog-park", CANVAS_W, CANVAS_H).with_background(
        0.3,
        0.08,
        vec![(Concept::new("park"), 0.8), (Concept::new("sky"), 0.4)],
    );

    let ear_types = ["floppy", "erect"];
    let ear = pick(&mut r, &ear_types).to_string();
    let fur_colors = ["brown", "black", "white", "golden"];
    let fur = pick(&mut r, &fur_colors).to_string();

    let dog_id = s.add_object(
        SceneObject::new(1, "dog", Rect::new(700, 520, 480, 380))
            .with_concept("dog", 1.0)
            .with_concept("animal", 0.9)
            .with_concept("fur", 0.5)
            .with_detail(0.45)
            .with_texture(0.6)
            .with_motion(0.6, (150.0, 20.0))
            .with_attribute("fur-color", fur.clone())
            .with_attribute("action", "running across the lawn"),
    );
    let head_id = s.add_object(
        SceneObject::new(2, "dog-head", Rect::new(1060, 520, 140, 130))
            .with_concept("dog-head", 1.0)
            .with_concept("ears", 0.9)
            .with_concept("dog", 0.8)
            .with_detail(0.82)
            .with_texture(0.65)
            .with_motion(0.6, (150.0, 20.0))
            .with_attribute("ear-type", ear.clone()),
    );
    let seasons = [
        ("spring", "lush green"),
        ("summer", "tall green"),
        ("autumn", "yellowing"),
        ("winter", "sparse brown"),
    ];
    let (season, grass_state) = *pick(&mut r, &seasons);
    let grass_id = s.add_object(
        SceneObject::new(3, "grass", Rect::new(0, 760, 1920, 320))
            .with_concept("grass", 1.0)
            .with_concept("lawn", 0.9)
            .with_concept("park", 0.6)
            .with_concept("season", 0.45)
            .with_detail(0.55)
            .with_texture(0.7)
            .with_motion(0.05, (0.0, 0.0))
            .with_attribute("state", grass_state.to_string())
            .with_attribute("season", season.to_string()),
    );
    let tree_id = s.add_object(
        SceneObject::new(4, "tree", Rect::new(120, 120, 380, 640))
            .with_concept("tree", 1.0)
            .with_concept("park", 0.6)
            .with_concept("season", 0.4)
            .with_detail(0.35)
            .with_texture(0.6)
            .with_attribute("season", season.to_string()),
    );

    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "Is the dog in the video erect-eared or floppy-eared?",
            format!("{ear}-eared"),
            vec![head_id],
            0.78,
        )
        .with_distractors(vec![
            format!("{}-eared", if ear == "floppy" { "erect" } else { "floppy" }),
            "It has no visible ears".to_string(),
            "It is wearing a hat".to_string(),
        ])
        .with_query_concepts(["dog", "ears", "dog-head"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "What color is the dog's fur?",
            fur.clone(),
            vec![dog_id],
            0.4,
        )
        .with_distractors(
            fur_colors
                .iter()
                .filter(|c| **c != fur)
                .take(3)
                .map(|c| c.to_string()),
        )
        .with_query_concepts(["dog", "fur", "color"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ActionPerception,
            "What is the dog doing in the video?",
            "Running across the lawn",
            vec![dog_id],
            0.25,
        )
        .multi_frame()
        .with_distractors(["Sleeping under the tree", "Digging a hole", "Drinking water"])
        .with_query_concepts(["dog", "action"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "Infer what season it might be in the video",
            season.to_string(),
            vec![grass_id, tree_id],
            0.6,
        )
        .with_distractors(
            seasons
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| *n != season)
                .take(3)
                .map(|n| n.to_string()),
        )
        .with_query_concepts(["season", "grass", "tree"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ObjectPerception,
            "Which animal appears in the video?",
            "A dog",
            vec![dog_id],
            0.12,
        )
        .with_distractors(["A cat", "A rabbit", "A horse"])
        .with_query_concepts(["dog", "animal"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::SpatialUnderstanding,
            "Is the tree to the left or to the right of the dog?",
            "To the left",
            vec![tree_id, dog_id],
            0.2,
        )
        .with_distractors(["To the right", "Behind the camera", "Directly above the dog"])
        .with_query_concepts(["tree", "dog", "position"]),
    );
    s
}

/// Lecture slides: dominated by small text, the most quality-sensitive family.
pub fn lecture_slides(seed: u64) -> Scene {
    let mut r = rng(seed, 3);
    let mut s = Scene::new("lecture-slides", CANVAS_W, CANVAS_H).with_background(
        0.15,
        0.03,
        vec![(Concept::new("lecture"), 0.7), (Concept::new("wall"), 0.5)],
    );
    let topics = [
        "Congestion Control",
        "Transformer Attention",
        "Photosynthesis",
        "Supply Chains",
        "Roman History",
    ];
    let topic = pick(&mut r, &topics).to_string();
    let bullet_counts: i64 = r.gen_range(3..7);
    let slide_number: i64 = r.gen_range(2..40);
    let slide_id = s.add_object(
        SceneObject::new(1, "slide", Rect::new(250, 90, 1300, 740))
            .with_concept("slide", 1.0)
            .with_concept("text", 0.95)
            .with_concept("title", 0.7)
            .with_concept("diagram", 0.5)
            .with_detail(0.95)
            .with_texture(0.8)
            .with_text(format!("{topic} — slide {slide_number}"))
            .with_attribute("title", topic.clone())
            .with_attribute("bullet-count", bullet_counts.to_string())
            .with_attribute("slide-number", slide_number.to_string()),
    );
    let lecturer_id = s.add_object(
        SceneObject::new(2, "lecturer", Rect::new(1580, 420, 280, 640))
            .with_concept("lecturer", 1.0)
            .with_concept("person", 0.9)
            .with_detail(0.3)
            .with_texture(0.5)
            .with_motion(0.3, (30.0, 0.0))
            .with_attribute("action", "pointing at the slide"),
    );

    s.add_fact(
        SceneFact::new(
            FactCategory::TextRich,
            "What is the title written on the slide?",
            topic.clone(),
            vec![slide_id],
            0.9,
        )
        .with_distractors(
            topics
                .iter()
                .filter(|t| **t != topic)
                .take(3)
                .map(|t| t.to_string()),
        )
        .with_query_concepts(["slide", "title", "text"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::TextRich,
            "What slide number is currently displayed?",
            slide_number.to_string(),
            vec![slide_id],
            0.92,
        )
        .with_distractors(numeric_distractors(&mut r, slide_number))
        .with_query_concepts(["slide", "number", "text"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::Counting,
            "How many bullet points are on the slide?",
            bullet_counts.to_string(),
            vec![slide_id],
            0.85,
        )
        .with_distractors(numeric_distractors(&mut r, bullet_counts))
        .with_query_concepts(["slide", "counting", "text"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ActionPerception,
            "What is the lecturer doing?",
            "Pointing at the slide",
            vec![lecturer_id],
            0.25,
        )
        .with_distractors([
            "Writing on a whiteboard",
            "Sitting at a desk",
            "Handing out papers",
        ])
        .with_query_concepts(["lecturer", "action"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ObjectPerception,
            "Is there a projected slide visible?",
            "Yes",
            vec![slide_id],
            0.1,
        )
        .with_distractors(["No", "Only a blackboard", "Only a poster"])
        .with_query_concepts(["slide"]),
    );
    s
}

/// Cooking show: action- and attribute-heavy with a small recipe card (text).
fn cooking_show(seed: u64) -> Scene {
    let mut r = rng(seed, 4);
    let mut s = Scene::new("cooking-show", CANVAS_W, CANVAS_H).with_background(
        0.4,
        0.1,
        vec![(Concept::new("kitchen"), 0.9), (Concept::new("cooking"), 0.6)],
    );
    let dishes = [
        "tomato pasta",
        "vegetable stir-fry",
        "mushroom omelette",
        "pancakes",
    ];
    let dish = pick(&mut r, &dishes).to_string();
    let ingredient_count: i64 = r.gen_range(3..8);
    let chef_id = s.add_object(
        SceneObject::new(1, "chef", Rect::new(760, 240, 400, 760))
            .with_concept("chef", 1.0)
            .with_concept("person", 0.9)
            .with_concept("cooking", 0.8)
            .with_detail(0.3)
            .with_texture(0.5)
            .with_motion(0.5, (40.0, 0.0))
            .with_attribute("action", "stirring the pan"),
    );
    let pan_id = s.add_object(
        SceneObject::new(2, "pan", Rect::new(900, 820, 360, 200))
            .with_concept("pan", 1.0)
            .with_concept("stove", 0.7)
            .with_concept("cooking", 0.7)
            .with_detail(0.45)
            .with_texture(0.55)
            .with_motion(0.3, (0.0, 0.0))
            .with_attribute("content", dish.clone()),
    );
    let ingredients_id = s.add_object(
        SceneObject::new(3, "ingredients", Rect::new(200, 840, 520, 200))
            .with_concept("ingredient", 1.0)
            .with_concept("food", 0.9)
            .with_concept("vegetable", 0.6)
            .with_detail(0.75)
            .with_texture(0.7)
            .with_attribute("count", ingredient_count.to_string()),
    );
    let recipe_id = s.add_object(
        SceneObject::new(4, "recipe-card", Rect::new(1500, 120, 340, 240))
            .with_concept("recipe", 1.0)
            .with_concept("text", 0.9)
            .with_detail(0.9)
            .with_texture(0.75)
            .with_text(format!("Recipe: {dish}"))
            .with_attribute("dish", dish.clone()),
    );

    s.add_fact(
        SceneFact::new(
            FactCategory::TextRich,
            "What dish name is written on the recipe card?",
            dish.clone(),
            vec![recipe_id],
            0.88,
        )
        .with_distractors(
            dishes
                .iter()
                .filter(|d| **d != dish)
                .take(3)
                .map(|d| d.to_string()),
        )
        .with_query_concepts(["recipe", "text"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::Counting,
            "How many different ingredients are laid out on the counter?",
            ingredient_count.to_string(),
            vec![ingredients_id],
            0.8,
        )
        .with_distractors(numeric_distractors(&mut r, ingredient_count))
        .with_query_concepts(["ingredient", "counting", "food"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ActionPerception,
            "What is the chef currently doing?",
            "Stirring the pan",
            vec![chef_id, pan_id],
            0.25,
        )
        .multi_frame()
        .with_distractors(["Chopping vegetables", "Washing dishes", "Plating the food"])
        .with_query_concepts(["chef", "cooking", "action"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ObjectPerception,
            "Is a frying pan visible on the stove?",
            "Yes",
            vec![pan_id],
            0.12,
        )
        .with_distractors(["No", "Only a pot", "Only an oven tray"])
        .with_query_concepts(["pan", "stove"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::SpatialUnderstanding,
            "Where is the recipe card relative to the chef?",
            "To the upper right",
            vec![recipe_id, chef_id],
            0.25,
        )
        .with_distractors(["To the lower left", "Directly behind the pan", "On the floor"])
        .with_query_concepts(["recipe", "chef", "position"]),
    );
    s
}

/// Street scene: small text (license plate), counting and spatial questions.
pub fn street_scene(seed: u64) -> Scene {
    let mut r = rng(seed, 5);
    let mut s = Scene::new("street-scene", CANVAS_W, CANVAS_H).with_background(
        0.45,
        0.2,
        vec![(Concept::new("street"), 0.9), (Concept::new("sky"), 0.3)],
    );
    let plate = format!(
        "{}{}-{}{}{}",
        (b'A' + r.gen_range(0..26u8)) as char,
        (b'A' + r.gen_range(0..26u8)) as char,
        r.gen_range(0..10),
        r.gen_range(0..10),
        r.gen_range(0..10),
    );
    let car_colors = ["red", "blue", "silver", "black", "white"];
    let car_color = pick(&mut r, &car_colors).to_string();
    let pedestrians: i64 = r.gen_range(2..7);
    let light_states = ["red", "green", "yellow"];
    let light = pick(&mut r, &light_states).to_string();

    let car_id = s.add_object(
        SceneObject::new(1, "car", Rect::new(300, 560, 700, 360))
            .with_concept("car", 1.0)
            .with_concept("street", 0.6)
            .with_detail(0.35)
            .with_texture(0.55)
            .with_motion(0.8, (260.0, 0.0))
            .with_attribute("color", car_color.clone()),
    );
    let plate_id = s.add_object(
        SceneObject::new(2, "license-plate", Rect::new(860, 820, 150, 60))
            .with_concept("license-plate", 1.0)
            .with_concept("text", 0.85)
            .with_concept("number", 0.8)
            .with_detail(0.95)
            .with_texture(0.7)
            .with_motion(0.8, (260.0, 0.0))
            .with_text(plate.clone())
            .with_attribute("plate", plate.clone()),
    );
    let pedestrians_id = s.add_object(
        SceneObject::new(3, "pedestrians", Rect::new(1200, 430, 600, 480))
            .with_concept("pedestrian", 1.0)
            .with_concept("person", 0.9)
            .with_detail(0.7)
            .with_texture(0.65)
            .with_motion(0.4, (-50.0, 0.0))
            .with_attribute("count", pedestrians.to_string()),
    );
    let light_id = s.add_object(
        SceneObject::new(4, "traffic-light", Rect::new(1100, 120, 90, 260))
            .with_concept("traffic-light", 1.0)
            .with_concept("color", 0.7)
            .with_detail(0.5)
            .with_texture(0.4)
            .with_attribute("state", light.clone()),
    );

    s.add_fact(
        SceneFact::new(
            FactCategory::TextRich,
            "What is written on the car's license plate?",
            plate.clone(),
            vec![plate_id],
            0.95,
        )
        .with_distractors(vec![
            format!("{}X", &plate[..plate.len() - 1]),
            "KL-402".to_string(),
            "BN-773".to_string(),
        ])
        .with_query_concepts(["license-plate", "text", "car"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::Counting,
            "How many pedestrians are waiting at the crossing?",
            pedestrians.to_string(),
            vec![pedestrians_id],
            0.78,
        )
        .with_distractors(numeric_distractors(&mut r, pedestrians))
        .with_query_concepts(["pedestrian", "counting"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "What color is the car driving past?",
            car_color.clone(),
            vec![car_id],
            0.3,
        )
        .with_distractors(
            car_colors
                .iter()
                .filter(|c| **c != car_color)
                .take(3)
                .map(|c| c.to_string()),
        )
        .with_query_concepts(["car", "color"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::AttributePerception,
            "What state is the traffic light showing?",
            light.clone(),
            vec![light_id],
            0.45,
        )
        .with_distractors(
            light_states
                .iter()
                .filter(|c| **c != light)
                .map(|c| c.to_string())
                .chain(["off".to_string()])
                .take(3),
        )
        .with_query_concepts(["traffic-light", "color"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::ActionPerception,
            "What is the car doing in the clip?",
            "Driving from left to right",
            vec![car_id],
            0.2,
        )
        .multi_frame()
        .with_distractors([
            "Parking in reverse",
            "Standing still",
            "Driving from right to left",
        ])
        .with_query_concepts(["car", "motion", "action"]),
    );
    s.add_fact(
        SceneFact::new(
            FactCategory::SpatialUnderstanding,
            "Are the pedestrians to the left or right of the car?",
            "To the right",
            vec![pedestrians_id, car_id],
            0.25,
        )
        .with_distractors(["To the left", "On top of the car", "Behind the traffic light"])
        .with_query_concepts(["pedestrian", "car", "position"]),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_templates_validate() {
        for kind in TemplateKind::ALL {
            for seed in 0..5u64 {
                let s = kind.build(seed);
                let problems = s.validate();
                assert!(problems.is_empty(), "{kind:?} seed {seed}: {problems:?}");
                assert!(!s.facts.is_empty());
                assert!(!s.objects.is_empty());
            }
        }
    }

    #[test]
    fn templates_are_deterministic() {
        for kind in TemplateKind::ALL {
            assert_eq!(kind.build(42), kind.build(42), "{kind:?} not deterministic");
        }
    }

    #[test]
    fn different_seeds_vary_parameters() {
        let a = basketball_game(1);
        let b = basketball_game(2);
        // At least one of the scoreboard attributes should differ across many seeds.
        let differs = (0..20u64).any(|s| {
            basketball_game(s).object(1).unwrap().attribute("home-score")
                != basketball_game(s + 100)
                    .object(1)
                    .unwrap()
                    .attribute("home-score")
        });
        assert!(differs || a != b);
    }

    #[test]
    fn every_template_has_quality_sensitive_and_insensitive_facts() {
        for kind in TemplateKind::ALL {
            let s = kind.build(7);
            let sensitive = s.quality_sensitive_facts(0.7).len();
            let total = s.facts.len();
            assert!(sensitive >= 1, "{kind:?} lacks quality-sensitive facts");
            assert!(sensitive < total, "{kind:?} has only quality-sensitive facts");
        }
    }

    #[test]
    fn every_template_covers_multiple_categories() {
        for kind in TemplateKind::ALL {
            let s = kind.build(3);
            let cats: std::collections::BTreeSet<_> = s.facts.iter().map(|f| f.category).collect();
            assert!(cats.len() >= 4, "{kind:?} covers only {cats:?}");
        }
    }

    #[test]
    fn facts_distractors_do_not_contain_answer() {
        for kind in TemplateKind::ALL {
            for seed in 0..10u64 {
                let s = kind.build(seed);
                for f in &s.facts {
                    assert!(
                        !f.distractors.contains(&f.answer),
                        "{kind:?} seed {seed}: answer leaked into distractors for {:?}",
                        f.question
                    );
                    assert!(f.distractors.len() >= 3);
                }
            }
        }
    }
}
