"""SQL tour of CulinaryDB.

Builds the relational database from a reduced-scale corpus and explores it
the way a user of the paper's web database (cosylab.iiitd.edu.in/culinarydb)
would — via queries.

Run:
    python examples/sql_tour.py
"""

from repro.culinarydb import CulinaryDB, build_culinarydb
from repro.experiments import build_workspace
from repro.reporting import render_dict_table


def show(culinary: CulinaryDB, title: str, sql: str) -> None:
    print(f"\n-- {title}\n   {sql}")
    print(render_dict_table(culinary.db.sql(sql)))


def main() -> None:
    print("building workspace and database (reduced scale)...")
    workspace = build_workspace(recipe_scale=0.1, include_world_only=False)
    database = build_culinarydb(
        workspace.recipes,
        workspace.catalog,
        instructions=workspace.corpus.raw_recipes.instructions,
    )
    culinary = CulinaryDB(database)

    show(
        culinary,
        "Largest cuisines (Table 1 regeneration)",
        "SELECT region_code, COUNT(*) AS recipes, "
        "AVG(n_ingredients) AS mean_size "
        "FROM recipes GROUP BY region_code ORDER BY recipes DESC LIMIT 8",
    )
    show(
        culinary,
        "Most molecule-rich ingredient categories",
        "SELECT category, COUNT(*) AS ingredients, "
        "AVG(profile_size) AS mean_profile "
        "FROM ingredients GROUP BY category "
        "ORDER BY mean_profile DESC LIMIT 6",
    )
    show(
        culinary,
        "Italian recipes mentioning tomato",
        "SELECT title FROM recipes "
        "JOIN recipe_ingredients ON recipes.recipe_id = recipe_id "
        "JOIN ingredients ON ingredient_id = ingredients.ingredient_id "
        "WHERE region_code = 'ITA' AND name = 'tomato' LIMIT 5",
    )
    show(
        culinary,
        "Flavor families by molecule count",
        "SELECT flavor_family, COUNT(*) AS molecules FROM molecules "
        "GROUP BY flavor_family ORDER BY molecules DESC LIMIT 6",
    )

    print("\n-- canned query: ingredients sharing molecules with garlic")
    for row in culinary.ingredients_sharing_molecules("garlic", limit=6):
        print(f"   {row['name']}: {row['shared_molecules']}")


if __name__ == "__main__":
    main()
